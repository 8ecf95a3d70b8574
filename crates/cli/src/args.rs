//! Minimal flag parser (`--name value` and boolean `--name` switches) — no
//! external dependency. Each subcommand declares every option it reads, so a
//! misspelled or retired option is an error instead of a silent no-op.

use std::collections::HashMap;

/// Parsed `--key value` / `--flag` arguments.
#[derive(Debug)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    /// Every declared name, switches and value options alike.
    declared: Vec<String>,
}

impl Args {
    /// Parses raw arguments. `boolean_flags` lists switches that take no
    /// value and `value_options` the `--name value` options; any other
    /// `--name` is rejected.
    pub fn parse(
        raw: &[String],
        boolean_flags: &[&str],
        value_options: &[&str],
    ) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if boolean_flags.contains(&name) {
                flags.push(name.to_string());
                i += 1;
            } else if !value_options.contains(&name) {
                return Err(format!("unknown option --{name}"));
            } else {
                let value = raw.get(i + 1).ok_or_else(|| format!("missing value for --{name}"))?;
                values.insert(name.to_string(), value.clone());
                i += 2;
            }
        }
        let declared = boolean_flags.iter().chain(value_options).map(|n| n.to_string()).collect();
        Ok(Args { values, flags, declared })
    }

    /// Reading an undeclared name is a bug in the subcommand: the parser
    /// would have rejected the option, so the read could never see a value.
    fn check_declared(&self, name: &str) {
        debug_assert!(
            self.declared.iter().any(|d| d == name),
            "option --{name} read but not declared"
        );
    }

    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required option --{name}"))
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.check_declared(name);
        self.values.get(name).map(String::as_str)
    }

    /// An optional parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad value for --{name}: {e}")),
        }
    }

    /// True if a boolean switch was given.
    pub fn flag(&self, name: &str) -> bool {
        self.check_declared(name);
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let a = Args::parse(
            &raw(&["--data", "d", "--online", "--k", "4"]),
            &["online", "filtered"],
            &["data", "k", "missing"],
        )
        .unwrap();
        assert_eq!(a.require("data").unwrap(), "d");
        assert!(a.flag("online"));
        assert_eq!(a.get_or("k", 0usize).unwrap(), 4);
        assert_eq!(a.get_or("missing", 7usize).unwrap(), 7);
        assert!(!a.flag("filtered"));
    }

    #[test]
    fn rejects_positional_and_dangling() {
        assert!(Args::parse(&raw(&["positional"]), &[], &[]).is_err());
        assert!(Args::parse(&raw(&["--data"]), &[], &["data"]).is_err());
    }

    #[test]
    fn rejects_undeclared_options_by_name() {
        let err = Args::parse(&raw(&["--stor", "kg"]), &["online"], &["store"]).unwrap_err();
        assert_eq!(err, "unknown option --stor");
        // An unknown option fails by name even after valid ones.
        let err = Args::parse(
            &raw(&["--online", "--store", "kg", "--queue", "8"]),
            &["online"],
            &["store"],
        )
        .unwrap_err();
        assert_eq!(err, "unknown option --queue");
        assert!(Args::parse(&raw(&["--online", "--store", "kg"]), &["online"], &["store"]).is_ok());
    }

    #[test]
    fn require_reports_missing() {
        let a = Args::parse(&raw(&[]), &[], &["data"]).unwrap();
        assert!(a.require("data").unwrap_err().contains("--data"));
    }

    #[test]
    fn bad_numeric_value_reports() {
        let a = Args::parse(&raw(&["--k", "x"]), &[], &["k"]).unwrap();
        assert!(a.get_or("k", 1usize).is_err());
    }
}
