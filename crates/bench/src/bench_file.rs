//! Where the `perf`, `loadgen` and `faultgen` bins write their reports:
//! `DIR/BENCH_<rev>.json` (schema `fpc-bench-v1`).

use fpc_metrics::json::Value;
use std::path::PathBuf;

/// One report's destination and revision label.
#[derive(Debug, Clone)]
pub struct BenchFile {
    dir: PathBuf,
    /// Filesystem-safe revision label; also the file name's `<rev>`.
    pub rev: String,
}

impl BenchFile {
    /// Labels the report `explicit` when given, else `$FPC_REV`, then
    /// `$GITHUB_SHA` (first 12 characters of either), then
    /// `git rev-parse --short HEAD`, then `local`. Characters outside
    /// `[A-Za-z0-9._-]` become `_`.
    pub fn new(dir: impl Into<PathBuf>, explicit: Option<&str>) -> BenchFile {
        let rev = resolve_rev(explicit, |var| std::env::var(var).ok(), git_short_head);
        BenchFile {
            dir: dir.into(),
            rev: sanitize(&rev),
        }
    }

    /// Wraps one bin's report as `{schema, rev, created_unix, <section>}`.
    pub fn envelope(&self, section: &str, report: Value) -> Value {
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Value::Obj(vec![
            (
                "schema".into(),
                Value::from(fpc_metrics::report::BENCH_SCHEMA),
            ),
            ("rev".into(), Value::from(self.rev.as_str())),
            ("created_unix".into(), Value::from(created_unix)),
            (section.into(), report),
        ])
    }

    /// Creates the directory and writes `value` to `DIR/BENCH_<rev>.json`.
    ///
    /// # Errors
    ///
    /// A one-line message naming the directory or file that failed.
    pub fn write(&self, value: &Value) -> Result<PathBuf, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let path = self.dir.join(format!("BENCH_{}.json", self.rev));
        std::fs::write(&path, value.to_json_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

fn resolve_rev(
    explicit: Option<&str>,
    env: impl Fn(&str) -> Option<String>,
    git: impl FnOnce() -> Option<String>,
) -> String {
    if let Some(rev) = explicit {
        return rev.to_string();
    }
    for var in ["FPC_REV", "GITHUB_SHA"] {
        if let Some(v) = env(var) {
            let v = v.trim();
            if !v.is_empty() {
                // Full SHAs make unwieldy file names; 12 hex chars is
                // plenty unique.
                return v.chars().take(12).collect();
            }
        }
    }
    git().unwrap_or_else(|| "local".to_string())
}

fn git_short_head() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim();
    (out.status.success() && !s.is_empty()).then(|| s.to_string())
}

/// Keeps revision labels filesystem-safe.
fn sanitize(rev: &str) -> String {
    let cleaned: String = rev
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "local".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_labels_filesystem_safe() {
        assert_eq!(sanitize(""), "local");
        assert_eq!(sanitize("feature/x\\y"), "feature_x_y");
        assert_eq!(sanitize("../up"), ".._up");
        assert_eq!(sanitize("v1.2-rc_3"), "v1.2-rc_3");
        assert_eq!(sanitize("a b:c"), "a_b_c");
    }

    #[test]
    fn explicit_rev_beats_env_beats_git() {
        let env = |var: &str| match var {
            "FPC_REV" => Some("fpcrev0123456789".to_string()),
            "GITHUB_SHA" => Some("githubsha0123456789".to_string()),
            _ => None,
        };
        let git = || Some("abc1234".to_string());
        assert_eq!(resolve_rev(Some("mine"), env, git), "mine");
        // Env values are trimmed and cut to 12 characters.
        assert_eq!(resolve_rev(None, env, git), "fpcrev012345");
        let sha_only = |var: &str| (var == "GITHUB_SHA").then(|| " 0123456789abcdef\n".to_string());
        assert_eq!(resolve_rev(None, sha_only, git), "0123456789ab");
        // A blank variable does not count; git is next, then `local`.
        let blank = |_: &str| Some("  ".to_string());
        assert_eq!(resolve_rev(None, blank, git), "abc1234");
        assert_eq!(resolve_rev(None, |_: &str| None, || None), "local");
    }
}
