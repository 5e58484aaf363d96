//! A one-request-per-connection HTTP/1.1 client, as `mendel serve`
//! dictates (`Connection: close`). Every call is bounded by a timeout.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Send one request and read the whole answer: `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    // Head and a small body leave in one segment.
    if body.len() <= 16 * 1024 {
        head.extend_from_slice(body);
        stream.write_all(&head)?;
    } else {
        stream.write_all(&head)?;
        stream.write_all(body)?;
    }
    let mut raw = Vec::with_capacity(8 * 1024);
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Split a complete `Connection: close` response into status and body.
pub fn parse_response(raw: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    let body = &raw[split + 4..];
    let declared = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok());
    if declared.is_some_and(|n| n != body.len()) {
        return Err(bad(
            "response body is shorter or longer than Content-Length",
        ));
    }
    Ok((status, body.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body_and_rejects_truncation() {
        let ok =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_response(ok).unwrap(), (200, b"{}".to_vec()));
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}";
        assert!(parse_response(short).is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        let err = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        assert_eq!(parse_response(err).unwrap(), (503, Vec::new()));
    }
}
