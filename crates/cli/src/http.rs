//! A minimal HTTP/1.1 front-end for `mendel serve`.
//!
//! Small on purpose: the serve node needs exactly four routes (`POST
//! /ingest`, `POST /query`, `GET /metrics`, `GET /healthz`) plus an
//! orderly shutdown, and the workspace vendors no HTTP stack — so this
//! is a from-scratch, thread-per-connection server over
//! `std::net::TcpListener`. Every connection carries one request
//! (`Connection: close`), which keeps parsing trivial and is plenty for
//! a control/query plane measured in requests per second, not
//! thousands.
//!
//! Hostile-input posture mirrors the frame codec: requests are parsed
//! into a typed [`Request`] or rejected with a 4xx, bodies above
//! [`MAX_BODY`] are refused before allocation, and a malformed preamble
//! never panics the acceptor. Server and client read a preamble through
//! one reader capped at [`MAX_PREAMBLE`] bytes, so neither side grows a
//! line without bound for a peer that never sends a newline.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard ceiling on a request body (FASTA ingests are the largest
/// legitimate payload). Larger Content-Lengths are rejected with 413
/// before any buffer is allocated.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Cap on a preamble — the request or status line and every header,
/// line ends included — on either side. A longer one is refused, with 431
/// by the server and `InvalidData` by the client, once this much is read.
pub const MAX_PREAMBLE: usize = 16 * 1024;

/// Per-connection socket timeouts so a stalled client cannot pin a
/// handler thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased).
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// The raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// The body (empty when no Content-Length was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of query parameter `key` (`k=v` pairs split on `&`;
    /// no percent-decoding — the operational surface uses plain
    /// alphanumeric values). A bare `key` with no `=` reads as `""`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// One response; the server adds Content-Length and Connection headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content-Type header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Request handler: pure function from request to response. Handler
/// panics are caught per connection and answered as 500 so one bad
/// query cannot take the server down.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// The server: an acceptor thread plus one short-lived thread per
/// connection. [`HttpServer::shutdown`] (also run on drop) stops the
/// acceptor and joins it once every request in flight is answered, so
/// a `/shutdown` reply is written before its process exits.
pub struct HttpServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (port 0 allowed) and start serving `handler`.
    pub fn bind(addr: SocketAddr, handler: Handler) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("mendel-http-accept".into())
                .spawn(move || accept_loop(&listener, &handler, &stop))?
        };
        Ok(HttpServer {
            local,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The socket actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stop accepting, answer the requests in flight, and join. Idempotent.
    pub fn shutdown(&mut self) {
        // audit:ordering(Relaxed): best-effort stop flag; the wake-up connection below does the real unblocking
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_millis(200));
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, handler: &Handler, stop: &Arc<AtomicBool>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                // audit:ordering(Relaxed): best-effort stop flag re-check
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                continue;
            }
        };
        // audit:ordering(Relaxed): best-effort stop flag re-check
        if stop.load(Ordering::Relaxed) {
            break;
        }
        conns.retain(|c| !c.is_finished());
        let handler = handler.clone();
        conns.extend(
            std::thread::Builder::new()
                .name("mendel-http-conn".into())
                .spawn(move || serve_connection(stream, &handler)),
        );
    }
    for c in conns {
        let _ = c.join();
    }
}

fn serve_connection(stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&stream) {
        Ok(req) => {
            // A panicking handler answers 500 instead of killing the
            // connection silently (the thread is already isolated).
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(req))) {
                Ok(resp) => resp,
                Err(_) => Response::json(500, "{\"error\":\"internal handler failure\"}"),
            }
        }
        Err(status) => Response::json(status, format!("{{\"error\":{:?}}}", status_reason(status))),
    };
    let _ = write_response(&stream, &response);
    let _ = stream.shutdown(Shutdown::Both);
}

/// The parts of a preamble either side reads: its first line (the
/// request or status line, line end included) and its `Content-Length`.
struct Preamble {
    first: String,
    content_length: Option<usize>,
}

/// Why a preamble was refused.
enum PreambleError {
    /// No blank line within [`MAX_PREAMBLE`] bytes.
    TooLarge,
    /// A failed read, a line that is not UTF-8, or a `Content-Length`
    /// that is not a number or differs from an earlier one.
    Malformed(io::Error),
    /// A `Transfer-Encoding` header: the body is framed in a way
    /// neither side decodes.
    TransferEncoding,
}

impl From<PreambleError> for io::Error {
    fn from(e: PreambleError) -> io::Error {
        match e {
            PreambleError::TooLarge => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("preamble over {MAX_PREAMBLE} bytes"),
            ),
            PreambleError::Malformed(e) => e,
            PreambleError::TransferEncoding => io::Error::new(
                io::ErrorKind::InvalidData,
                "Transfer-Encoding is not supported",
            ),
        }
    }
}

/// Read one preamble — a first line, headers, a blank line — reading at
/// most [`MAX_PREAMBLE`] bytes. The end of the stream also ends it, as a
/// blank line would. Of the headers only `Content-Length` is kept. A
/// body whose length the headers do not pin down — `Content-Length`s
/// that disagree, or any `Transfer-Encoding`, which neither side
/// decodes — is refused rather than guessed at.
fn read_preamble(reader: &mut impl BufRead) -> Result<Preamble, PreambleError> {
    let mut budget = MAX_PREAMBLE as u64;
    let mut next_line = || {
        if budget == 0 {
            return Err(PreambleError::TooLarge);
        }
        let mut line = Vec::new();
        let read = (&mut *reader)
            .take(budget)
            .read_until(b'\n', &mut line)
            .map_err(PreambleError::Malformed)?;
        budget -= read as u64;
        if budget == 0 && !line.ends_with(b"\n") {
            return Err(PreambleError::TooLarge);
        }
        String::from_utf8(line)
            .map_err(|e| PreambleError::Malformed(io::Error::new(io::ErrorKind::InvalidData, e)))
    };
    let first = next_line()?;
    let mut content_length = None;
    loop {
        let header = next_line()?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(PreambleError::TransferEncoding);
            }
            if name.eq_ignore_ascii_case("content-length") {
                let n = value.trim().parse().map_err(|e| {
                    PreambleError::Malformed(io::Error::new(io::ErrorKind::InvalidData, e))
                })?;
                if content_length.is_some_and(|m| m != n) {
                    return Err(PreambleError::Malformed(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "differing Content-Length headers",
                    )));
                }
                content_length = Some(n);
            }
        }
    }
    Ok(Preamble {
        first,
        content_length,
    })
}

/// Parse one request off the stream; `Err` is the status to answer.
fn read_request(stream: &TcpStream) -> Result<Request, u16> {
    let mut reader = BufReader::new(stream);
    let preamble = read_preamble(&mut reader).map_err(|e| match e {
        PreambleError::TooLarge => 431u16,
        PreambleError::Malformed(_) => 400,
        PreambleError::TransferEncoding => 501,
    })?;
    let mut parts = preamble.first.split_whitespace();
    let method = parts.next().ok_or(400u16)?.to_ascii_uppercase();
    let target = parts.next().ok_or(400u16)?;
    let version = parts.next().ok_or(400u16)?;
    if !version.starts_with("HTTP/1.") {
        return Err(400);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let content_length = preamble.content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(413);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|_| 400u16)?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn write_response(mut stream: &TcpStream, resp: &Response) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)
}

/// Blocking one-shot HTTP client, for tests and the multi-process
/// harness: one request per connection, mirroring the server. A reply
/// whose preamble runs past [`MAX_PREAMBLE`] or whose body would exceed
/// [`MAX_BODY`] is an `InvalidData` error, refused before the body is
/// allocated.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut reader = BufReader::new(stream);
    let preamble = read_preamble(&mut reader)?;
    let status: u16 = preamble
        .first
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let over = || io::Error::new(io::ErrorKind::InvalidData, "response body over MAX_BODY");
    let mut body = Vec::new();
    match preamble.content_length {
        Some(n) if n > MAX_BODY => return Err(over()),
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.take(MAX_BODY as u64 + 1).read_to_end(&mut body)?;
            if body.len() > MAX_BODY {
                return Err(over());
            }
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        let handler: Handler =
            Arc::new(
                |req: Request| match (req.method.as_str(), req.path.as_str()) {
                    ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}"),
                    ("POST", "/echo") => Response::text(200, req.body),
                    ("GET", "/boom") => panic!("handler blew up"),
                    _ => Response::json(404, "{\"error\":\"no such route\"}"),
                },
            );
        HttpServer::bind("127.0.0.1:0".parse().expect("loopback"), handler).expect("bind")
    }

    #[test]
    fn routes_get_and_post() {
        let server = echo_server();
        let (status, body) =
            http_request(server.local_addr(), "GET", "/healthz", b"").expect("get");
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"status\":\"ok\"}");
        let (status, body) =
            http_request(server.local_addr(), "POST", "/echo", b"MKTAYIAK").expect("post");
        assert_eq!(status, 200);
        assert_eq!(body, b"MKTAYIAK");
        let (status, _) = http_request(server.local_addr(), "GET", "/nope", b"").expect("404");
        assert_eq!(status, 404);
    }

    #[test]
    fn query_strings_are_stripped() {
        let server = echo_server();
        let (status, _) =
            http_request(server.local_addr(), "GET", "/healthz?verbose=1", b"").expect("get");
        assert_eq!(status, 200);
    }

    #[test]
    fn query_params_parse() {
        let req = Request {
            method: "GET".into(),
            path: "/trace/7".into(),
            query: "format=chrome&scope=cluster&bare".into(),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("format"), Some("chrome"));
        assert_eq!(req.query_param("scope"), Some("cluster"));
        assert_eq!(req.query_param("bare"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        let empty = Request {
            query: String::new(),
            ..req
        };
        assert_eq!(empty.query_param("format"), None);
    }

    #[test]
    fn handler_panic_is_a_500_and_server_survives() {
        let server = echo_server();
        let (status, _) = http_request(server.local_addr(), "GET", "/boom", b"").expect("500");
        assert_eq!(status, 500);
        let (status, _) = http_request(server.local_addr(), "GET", "/healthz", b"").expect("alive");
        assert_eq!(status, 200);
    }

    #[test]
    fn garbage_preamble_is_rejected_not_fatal() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(b"\x00\x01\x02 not http at all\r\n\r\n")
            .expect("write");
        let mut out = String::new();
        let mut reader = BufReader::new(&stream);
        let _ = reader.read_line(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        // And the server still answers real requests.
        let (status, _) = http_request(server.local_addr(), "GET", "/healthz", b"").expect("alive");
        assert_eq!(status, 200);
    }

    #[test]
    fn oversized_content_length_is_413_before_allocation() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let head = format!(
            "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        stream.write_all(head.as_bytes()).expect("write");
        let mut out = String::new();
        let mut reader = BufReader::new(&stream);
        let _ = reader.read_line(&mut out);
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
    }

    #[test]
    fn endless_request_line_is_431_and_the_server_survives() {
        let server = echo_server();
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // The server stops reading at the cap and closes, so the rest of
        // the megabyte may meet a reset: write it from another thread.
        let writer = {
            let mut stream = stream.try_clone().expect("clone");
            std::thread::spawn(move || {
                let _ = stream.write_all(&vec![b'A'; 1 << 20]);
            })
        };
        let mut out = String::new();
        let _ = BufReader::new(&stream).read_line(&mut out);
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        let _ = writer.join();
        let (status, _) = http_request(server.local_addr(), "GET", "/healthz", b"").expect("alive");
        assert_eq!(status, 200);
    }

    /// The status line the server answers a raw `request` with.
    fn raw_status(server: &HttpServer, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(request).expect("write");
        let mut out = String::new();
        let _ = BufReader::new(&stream).read_line(&mut out);
        out
    }

    #[test]
    fn differing_content_lengths_are_400_and_the_server_survives() {
        let server = echo_server();
        let out = raw_status(
            &server,
            b"POST /echo HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 8\r\n\r\nMKTAYIAK",
        );
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        // Repeating one value is not ambiguous.
        let out = raw_status(
            &server,
            b"POST /echo HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nMKTA",
        );
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        let (status, _) = http_request(server.local_addr(), "GET", "/healthz", b"").expect("alive");
        assert_eq!(status, 200);
    }

    #[test]
    fn chunked_request_is_501_not_an_empty_body() {
        let server = echo_server();
        let out = raw_status(
            &server,
            b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nMKTA\r\n0\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 501"), "{out}");
        let (status, _) = http_request(server.local_addr(), "GET", "/healthz", b"").expect("alive");
        assert_eq!(status, 200);
    }

    /// A peer that answers one connection with `reply`, whatever it asked.
    fn stub_peer(reply: Vec<u8>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let _ = stream.read(&mut [0u8; 1024]);
                let _ = stream.write_all(&reply);
            }
        });
        addr
    }

    #[test]
    fn client_refuses_a_content_length_over_max_body_before_allocating() {
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = http_request(stub_peer(head.into_bytes()), "GET", "/metrics", b"")
            .expect_err("a body over MAX_BODY");
        // Allocating the body and reading it would end in UnexpectedEof.
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn client_refuses_a_chunked_or_ambiguous_reply() {
        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n";
        let ambiguous = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{} ";
        for reply in [&chunked[..], &ambiguous[..]] {
            let err = http_request(stub_peer(reply.to_vec()), "GET", "/metrics", b"")
                .expect_err("an unframed reply");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn client_refuses_an_endless_status_line() {
        let err = http_request(stub_peer(vec![b'H'; 1 << 20]), "GET", "/metrics", b"")
            .expect_err("a preamble over MAX_PREAMBLE");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let mut server = echo_server();
        server.shutdown();
        server.shutdown();
        assert!(http_request(server.local_addr(), "GET", "/healthz", b"").is_err());
    }
}
