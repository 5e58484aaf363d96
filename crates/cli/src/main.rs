//! Thin binary shim over [`mendel_cli::run`].

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command output belongs on stdout and errors on stderr; this shim is the one place the CLI prints"
)]

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    match mendel_cli::run(&tokens) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", mendel_cli::USAGE);
            std::process::exit(1);
        }
    }
}
