//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed `--key value` options.
#[derive(Clone, Debug, Default)]
pub struct Options {
    values: BTreeMap<String, String>,
}

impl Options {
    /// Parses a `--key value --key2 value2 …` list whose keys are all in
    /// `known` (given without the leading `--`).
    ///
    /// # Errors
    ///
    /// Rejects positional arguments, unknown keys (naming the key and
    /// listing `known`), repeated keys and dangling flags.
    pub fn parse(argv: &[String], known: &[&str]) -> Result<Options, String> {
        let mut values = BTreeMap::new();
        let mut iter = argv.iter();
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(format!("expected `--option`, found `{token}`"));
            };
            if !known.contains(&key) {
                let supported: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                return Err(format!(
                    "unknown option `--{key}` (supported: {})",
                    supported.join(", ")
                ));
            }
            let Some(value) = iter.next() else {
                return Err(format!("option `--{key}` needs a value"));
            };
            if values.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("option `--{key}` given twice"));
            }
        }
        Ok(Options { values })
    }

    /// The raw value of `key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns a usage error naming the missing option.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option `--{key}`"))
    }

    /// A required parsed option.
    ///
    /// # Errors
    ///
    /// Returns a usage error for missing or malformed values.
    pub fn required_parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.required(key)?
            .parse()
            .map_err(|_| format!("option `--{key}` has an invalid value"))
    }

    /// An optional parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns a usage error for malformed values.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("option `--{key}` has an invalid value")),
        }
    }
}

/// Takes the value-less switches `names` (such as `--sidecar`) out of
/// `argv`: returns whether each was given, and the remaining tokens for
/// [`split_positionals`] and [`Options::parse`].
#[must_use]
pub fn switches<const N: usize>(argv: &[String], names: [&str; N]) -> ([bool; N], Vec<String>) {
    let given = names.map(|name| argv.iter().any(|token| token == name));
    let rest = argv
        .iter()
        .filter(|token| !names.contains(&token.as_str()))
        .cloned()
        .collect();
    (given, rest)
}

/// Splits leading positional arguments from trailing `--key value` options.
#[must_use]
pub fn split_positionals(argv: &[String]) -> (Vec<&str>, &[String]) {
    let cut = argv
        .iter()
        .position(|token| token.starts_with("--"))
        .unwrap_or(argv.len());
    (
        argv[..cut].iter().map(String::as_str).collect(),
        &argv[cut..],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    const KNOWN: &[&str] = &["n", "family", "seed"];

    #[test]
    fn parses_pairs() {
        let options = Options::parse(&argv(&["--n", "12", "--family", "cycle"]), KNOWN).unwrap();
        assert_eq!(options.get("n"), Some("12"));
        assert_eq!(options.required("family").unwrap(), "cycle");
        assert_eq!(options.required_parse::<usize>("n").unwrap(), 12);
        assert_eq!(options.parse_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_positional() {
        assert!(Options::parse(&argv(&["cycle"]), KNOWN).is_err());
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(Options::parse(&argv(&["--n"]), KNOWN).is_err());
    }

    #[test]
    fn rejects_duplicates() {
        assert!(Options::parse(&argv(&["--n", "1", "--n", "2"]), KNOWN).is_err());
    }

    #[test]
    fn rejects_unknown_keys_by_name() {
        for tokens in [&["--n", "5", "--bogus", "3"][..], &["--bogus"]] {
            let err = Options::parse(&argv(tokens), KNOWN).unwrap_err();
            assert!(err.contains("unknown option `--bogus`"), "{err}");
            assert!(err.contains("--n, --family, --seed"), "{err}");
        }
    }

    #[test]
    fn reports_missing_and_malformed() {
        let options = Options::parse(&argv(&["--n", "twelve"]), KNOWN).unwrap();
        assert!(options.required("family").unwrap_err().contains("--family"));
        assert!(options
            .required_parse::<usize>("n")
            .unwrap_err()
            .contains("--n"));
        assert!(options.parse_or::<usize>("n", 1).is_err());
    }

    #[test]
    fn switches_and_positionals_split_off() {
        let tokens = argv(&["t.json", "--quiet", "--top", "3", "--sidecar"]);
        let ([quiet, profile, sidecar], rest) =
            switches(&tokens, ["--quiet", "--profile", "--sidecar"]);
        assert_eq!((quiet, profile, sidecar), (true, false, true));
        let (positionals, options) = split_positionals(&rest);
        assert_eq!(positionals, ["t.json"]);
        let options = Options::parse(options, &["top"]).unwrap();
        assert_eq!(options.get("top"), Some("3"));
    }
}
