//! # mendel-cli — the `mendel` command-line tool
//!
//! ```text
//! mendel generate --out db.fasta [--families 64] [--members 4] [--dna] [--seed 7]
//! mendel query    --db db.fasta --query q.fasta [--dna] ...
//! mendel blast    --db db.fasta --query q.fasta [--dna]
//! mendel info     --db db.fasta [--dna] ...
//! mendel metrics  --db db.fasta [--query q.fasta] [--format json] ...
//! mendel trace dump --db db.fasta --query q.fasta [--format tree] ...
//! mendel serve    --node 0 --listen 127.0.0.1:7701 --http 127.0.0.1:8701
//!                 --peers 1=127.0.0.1:7702,2=127.0.0.1:7703 ...
//! mendel help
//! ```
//!
//! `query`, `info`, `metrics` and a local `trace dump` index `--db` in
//! process, into the cluster `serve` builds from the same flags, so they
//! print what a served cluster of that shape answers. A key a command
//! does not read is an error.
//!
//! The library half holds all the logic (testable without spawning a
//! process); `main.rs` is a thin shim.

pub mod args;
pub mod commands;
pub mod http;
pub mod serve;

pub use args::{ArgError, Args};
pub use commands::{run, CliError};
pub use serve::{render_outcome_json, ServeConfig};

/// Usage text for `mendel help` and errors.
pub const USAGE: &str = "\
mendel — distributed similarity search over sequencing data (IPDPS'16 reproduction)

USAGE:
  mendel generate --out <fasta> [--families N] [--members N] [--min-len N]
                  [--max-len N] [--divergence F] [--seed N] [--dna]
  mendel query    --db <fasta> --query <fasta> [--top N] [CLUSTER] [SEARCH]
  mendel blast    --db <fasta> --query <fasta> [--evalue F] [--top N] [--dna]
  mendel info     --db <fasta> [CLUSTER]
  mendel metrics  --db <fasta> [--query <fasta>] [--format prometheus|json]
                  [CLUSTER] [SEARCH]
  mendel durability [--nodes N] [--groups N] [--fsync always|group|flush]
                  [--memtable N] [--families N] [--members N] [--seed N] [--dna]
  mendel trace dump --db <fasta> --query <fasta> [--format chrome|tree]
                  [--out <path>] [CLUSTER] [SEARCH]
  mendel trace dump --addr <host:port> [--trace N]
                  [--format chrome|tree|records|path] [--out <path>]
  mendel trace slowlog --addr <host:port>
  mendel top      --addr <host:port> [--iterations N] [--interval-ms N]
  mendel serve    --node N --listen <host:port> --http <host:port>
                  [--peers N=host:port,...] [--http-peers N=host:port,...]
                  [--data-dir <dir>] [--rpc-timeout-ms N]
                  [--tracing true|false] [--trace-sample N]
                  [--slowlog-threshold-ms N] [--slowlog-sample N] [CLUSTER]
  mendel help

CLUSTER, the cluster --db is indexed into, the same for every command:
  [--nodes N] [--groups N] [--block-len N] [--replication N] [--seed N] [--dna]
SEARCH, the query parameters of the paper's Table I:
  [--evalue F] [--nn N] [--identity F] [--cscore F] [--step N] [--band N]
";
