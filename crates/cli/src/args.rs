//! A small, dependency-free command-line argument parser.
//!
//! Grammar: `mendel <command> [--key value]... [--flag]...`. Values never
//! start with `--`; everything else is an error with a helpful message.

use std::collections::HashMap;

/// Parsed invocation: the subcommand plus its options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (`generate`, `query`, ...).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Argument-parsing errors, with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// `--key` appeared at the end with no value.
    MissingValue(String),
    /// A bare token appeared where `--key` was expected.
    UnexpectedToken(String),
    /// A required option is absent.
    MissingOption(String),
    /// An option or flag the command does not read.
    UnknownOption {
        /// The command it was given to.
        command: String,
        /// The option name.
        key: String,
    },
    /// A value failed to parse as the expected type.
    BadValue {
        /// The option name.
        key: String,
        /// The raw value supplied.
        value: String,
        /// What it should have been.
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given; try `mendel help`"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::UnexpectedToken(t) => write!(f, "unexpected argument {t:?}"),
            ArgError::MissingOption(k) => write!(f, "required option --{k} is missing"),
            ArgError::UnknownOption { command, key } => {
                write!(
                    f,
                    "`mendel {command}` takes no option --{key}; try `mendel help`"
                )
            }
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} {value:?} is not a valid {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Option keys that are boolean flags (no value).
const FLAGS: &[&str] = &["dna"];

impl Args {
    /// Parse a raw token stream (without the program name).
    pub fn parse(tokens: &[String]) -> Result<Args, ArgError> {
        let mut it = tokens.iter();
        let command = it.next().ok_or(ArgError::MissingCommand)?.clone();
        let mut args = Args {
            command,
            ..Default::default()
        };
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError::UnexpectedToken(tok.clone()))?;
            if FLAGS.contains(&key) {
                args.flags.push(key.to_string());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(key.into()))?;
                if value.starts_with("--") {
                    return Err(ArgError::MissingValue(key.into()));
                }
                args.options.insert(key.to_string(), value.clone());
            }
        }
        Ok(args)
    }

    /// A string option, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError::MissingOption(key.into()))
    }

    /// A parsed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                key: key.into(),
                value: raw.into(),
                expected,
            }),
        }
    }

    /// True when a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Refuse any option or flag outside `known`, naming the first in
    /// key order, so a misspelt or stale key fails instead of silently
    /// leaving its default in place.
    pub fn only(&self, known: &[&str]) -> Result<(), ArgError> {
        let keys = self.options.keys().chain(&self.flags);
        match keys.filter(|k| !known.contains(&k.as_str())).min() {
            Some(key) => Err(ArgError::UnknownOption {
                command: self.command.clone(),
                key: key.clone(),
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = Args::parse(&toks("query --db x.fasta --nodes 10 --dna")).unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.get("db"), Some("x.fasta"));
        assert_eq!(a.get_parsed("nodes", 0usize, "integer").unwrap(), 10);
        assert!(a.flag("dna"));
        assert!(!a.flag("nodes"));
    }

    #[test]
    fn only_names_the_first_unknown_key() {
        let a = Args::parse(&toks("query --db x --zeta 1 --alpha 2 --dna")).unwrap();
        assert_eq!(a.only(&["db", "zeta", "alpha", "dna"]), Ok(()));
        assert_eq!(
            a.only(&["db"]),
            Err(ArgError::UnknownOption {
                command: "query".into(),
                key: "alpha".into()
            })
        );
        let err = a.only(&["db", "zeta", "alpha"]).unwrap_err();
        assert!(err.to_string().contains("--dna"), "{err}");
    }

    #[test]
    fn empty_invocation_is_missing_command() {
        assert_eq!(Args::parse(&[]), Err(ArgError::MissingCommand));
    }

    #[test]
    fn dangling_option_is_missing_value() {
        assert_eq!(
            Args::parse(&toks("query --db")),
            Err(ArgError::MissingValue("db".into()))
        );
        assert_eq!(
            Args::parse(&toks("query --db --dna")),
            Err(ArgError::MissingValue("db".into()))
        );
    }

    #[test]
    fn bare_token_is_unexpected() {
        assert_eq!(
            Args::parse(&toks("query stray")),
            Err(ArgError::UnexpectedToken("stray".into()))
        );
    }

    #[test]
    fn require_and_bad_value() {
        let a = Args::parse(&toks("q --n abc")).unwrap();
        assert!(matches!(a.require("db"), Err(ArgError::MissingOption(_))));
        assert!(matches!(
            a.get_parsed::<usize>("n", 1, "integer"),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = Args::parse(&toks("q")).unwrap();
        assert_eq!(a.get_parsed("nodes", 50usize, "integer").unwrap(), 50);
    }

    #[test]
    fn errors_render_usefully() {
        assert!(ArgError::MissingOption("db".into())
            .to_string()
            .contains("--db"));
        assert!(ArgError::BadValue {
            key: "n".into(),
            value: "x".into(),
            expected: "integer"
        }
        .to_string()
        .contains("integer"));
    }
}
