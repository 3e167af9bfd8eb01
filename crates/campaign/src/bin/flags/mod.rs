//! The strict flag parser shared by the `campaign` and `snapshot`
//! binaries: every flag takes one value except the listed boolean
//! switches; unknown flags are errors, not typos-in-waiting.

/// The error text of one binary (the two grew apart before they shared
/// a parser, and scripts may match either).
pub struct Wording {
    /// Follows the flag name when its value is missing.
    pub missing_value: &'static str,
    /// Precedes the quoted unknown argument.
    pub unknown: &'static str,
    /// The error `--help`/`-h` after a subcommand produces (the caller
    /// prints the usage with every error); `None` treats them as
    /// unknown arguments.
    pub help: Option<&'static str>,
}

pub struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Wording {
    /// Parses `args` against the known value flags and switches.
    pub fn parse(
        &self,
        args: &[String],
        known: &[&str],
        known_switches: &[&str],
    ) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let (Some(help), "--help" | "-h") = (self.help, a.as_str()) {
                return Err(help.to_string());
            }
            if known_switches.contains(&a.as_str()) {
                switches.push(a.clone());
            } else if known.contains(&a.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{a} {}", self.missing_value))?;
                pairs.push((a.clone(), v.clone()));
            } else {
                return Err(format!("{} {a:?}", self.unknown));
            }
        }
        Ok(Flags { pairs, switches })
    }
}

impl Flags {
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    #[allow(dead_code)] // `snapshot` has no switches
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("malformed value {v:?} for {key}"))
            })
            .transpose()
    }
}
