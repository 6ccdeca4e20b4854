//! `check.toml`: declarative configuration for the semantic pass.
//!
//! The workspace root carries a `check.toml` naming the scopes of the
//! rules. The file is parsed with a deliberately tiny TOML subset reader
//! (sections, `key = value` with string / bool / string-array values,
//! `#` comments) — the registry is unreachable from CI, so no `toml`
//! crate. An unknown section or key is an error.
//!
//! Missing file ⇒ [`Config::default`]: every rule that needs
//! configuration (panic scope, determinism scope, dead-API scope) is
//! simply skipped.

use std::path::Path;

/// Parsed semantic-pass configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// `[panics] public_crates`: crates whose `pub` functions must not
    /// reach a panic site.
    pub panic_public_crates: Vec<String>,
    /// `[panics] include_indexing`: treat slice/`Vec` indexing as a
    /// panic source. Off by default — indexing is pervasive in the
    /// adjacency code and flagging it drowns the signal; the switch
    /// exists so an audit build can turn it on.
    pub panic_include_indexing: bool,
    /// `[panics] index_crates`: crates whose indexing sites count as
    /// panic sources even while the global `include_indexing` switch is
    /// off — a per-crate opt-in for code (like the serving layer) where
    /// an out-of-bounds panic would take down a long-lived process.
    pub panic_index_crates: Vec<String>,
    /// `[determinism] order_crates`: crates where `HashMap`/`HashSet`
    /// iteration order is treated as observable output (samplers and
    /// solvers) and therefore flagged.
    pub order_crates: Vec<String>,
    /// `[determinism] rng_crates`: crates whose functions must not
    /// construct an RNG unless they take a seed or `Rng` parameter.
    /// The bench crate is deliberately out of scope — its hard-coded
    /// seeds *define* the experiments.
    pub rng_crates: Vec<String>,
    /// `[dead-api] crates`: crates whose `pub` items are audited for
    /// having at least one reference from elsewhere in the workspace.
    pub dead_api_crates: Vec<String>,
}

/// A `check.toml` parse failure, with a 1-based line number.
#[derive(Clone, Debug)]
pub struct ConfigError {
    /// Line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "check.toml:{}: {}", self.line, self.message)
    }
}

/// One parsed TOML value from the subset grammar.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Str(String),
    Bool(bool),
    StrArray(Vec<String>),
}

impl Config {
    /// Load `check.toml` from `root`, or the permissive default when the
    /// file does not exist.
    pub fn load(root: &Path) -> Result<Config, ConfigError> {
        let path = root.join("check.toml");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(Config::default());
        };
        Config::parse(&text)
    }

    /// Parse configuration text (the TOML subset described in the module
    /// docs).
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = unquote(line[..eq].trim());
            let value = parse_value(line[eq + 1..].trim()).ok_or_else(|| ConfigError {
                line: line_no,
                message: format!("unsupported value syntax `{}`", line[eq + 1..].trim()),
            })?;
            cfg.apply(&section, &key, value, line_no)?;
        }
        Ok(cfg)
    }

    /// Route one `key = value` pair into the matching field.
    fn apply(
        &mut self,
        section: &str,
        key: &str,
        value: Value,
        line: usize,
    ) -> Result<(), ConfigError> {
        let err = |message: String| Err(ConfigError { line, message });
        match (section, key) {
            ("panics", "public_crates") => match value {
                Value::StrArray(v) => {
                    self.panic_public_crates = v;
                    Ok(())
                }
                _ => err("panics.public_crates must be an array".into()),
            },
            ("panics", "include_indexing") => match value {
                Value::Bool(b) => {
                    self.panic_include_indexing = b;
                    Ok(())
                }
                _ => err("panics.include_indexing must be a bool".into()),
            },
            ("panics", "index_crates") => match value {
                Value::StrArray(v) => {
                    self.panic_index_crates = v;
                    Ok(())
                }
                _ => err("panics.index_crates must be an array".into()),
            },
            ("determinism", "order_crates") => match value {
                Value::StrArray(v) => {
                    self.order_crates = v;
                    Ok(())
                }
                _ => err("determinism.order_crates must be an array".into()),
            },
            ("determinism", "rng_crates") => match value {
                Value::StrArray(v) => {
                    self.rng_crates = v;
                    Ok(())
                }
                _ => err("determinism.rng_crates must be an array".into()),
            },
            ("dead-api", "crates") => match value {
                Value::StrArray(v) => {
                    self.dead_api_crates = v;
                    Ok(())
                }
                _ => err("dead-api.crates must be an array".into()),
            },
            _ => err(format!("unknown configuration key [{section}] {key}")),
        }
    }
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Strip surrounding double quotes if present (TOML quoted keys).
fn unquote(s: &str) -> String {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s)
        .to_string()
}

/// Parse the value subset: `"str"`, `true`/`false`, and flat string
/// arrays (which may span only a single line).
fn parse_value(s: &str) -> Option<Value> {
    if s == "true" {
        return Some(Value::Bool(true));
    }
    if s == "false" {
        return Some(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        if !body.contains('"') {
            return Some(Value::Str(body.to_string()));
        }
        return None;
    }
    if let Some(body) = s.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let body = body.trim();
        if body.is_empty() {
            return Some(Value::StrArray(Vec::new()));
        }
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            let inner = part.strip_prefix('"')?.strip_suffix('"')?;
            items.push(inner.to_string());
        }
        return Some(Value::StrArray(items));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[panics]
public_crates = ["sor-flow", "sor-core"]
include_indexing = false

[determinism]
order_crates = ["sor-core"]

[dead-api]
crates = ["sor-graph"] # trailing comment
"#;

    #[test]
    fn parses_sample() {
        let cfg = Config::parse(SAMPLE).expect("parse");
        assert_eq!(cfg.panic_public_crates, vec!["sor-flow", "sor-core"]);
        assert!(!cfg.panic_include_indexing);
        assert_eq!(cfg.order_crates, vec!["sor-core"]);
        assert_eq!(cfg.dead_api_crates, vec!["sor-graph"]);
    }

    #[test]
    fn panic_index_crates_parse() {
        let cfg = Config::parse("[panics]\nindex_crates = [\"sor-serve\"]\n").expect("parse");
        assert_eq!(cfg.panic_index_crates, vec!["sor-serve"]);
        assert!(!cfg.panic_include_indexing);
    }

    #[test]
    fn unknown_key_is_rejected() {
        assert!(Config::parse("[panics]\nfrobnicate = 3\n").is_err());
    }

    #[test]
    fn missing_file_is_default() {
        let cfg = Config::load(Path::new("/no/such/dir")).expect("default");
        assert!(cfg.panic_public_crates.is_empty() && cfg.dead_api_crates.is_empty());
    }
}
