//! What one run reports: counts, named metrics and provenance, and the
//! final JSON line the harness reads.

use pf_serve::json::Json;

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics (seed, threads, digests, …).
    pub info: Vec<(&'static str, String)>,
    /// First few failure messages, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Counts one unit of work; `err` marks it failed.
    pub fn count(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The harness's result line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]);
                (m.name.to_string(), v)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// The provenance line printed before the result line.
    pub fn info_json(&self) -> String {
        let info = self
            .info
            .iter()
            .map(|(k, v)| (k.to_string(), Json::str(v.as_str())))
            .collect();
        Json::obj([("provenance", Json::Obj(info))]).to_string()
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit under test, read from `.git` in the working directory (no
/// search above it); `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let git = std::path::Path::new(".git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_harness_keys() {
        let mut o = Outcome::default();
        o.count(None);
        o.count(Some("boom".into()));
        o.put("x_ms", "ms", 1.25);
        o.put("n", "count", 3.0);
        let line = o.result_json();
        let v = pf_serve::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|b| b.as_bool()), Some(false));
        assert_eq!(v.get("attempted").and_then(|n| n.as_u64()), Some(2));
        assert_eq!(v.get("failed").and_then(|n| n.as_u64()), Some(1));
        let m = v.get("metrics").expect("metrics");
        let x = m.get("x_ms").expect("x_ms");
        assert_eq!(x.get("value").and_then(|n| n.as_f64()), Some(1.25));
        assert_eq!(x.get("unit").and_then(|u| u.as_str()), Some("ms"));
    }

    #[test]
    fn provenance_line_keeps_quotes_in_notes() {
        let mut o = Outcome::default();
        o.note("failure", r#"status "timed_out""#);
        let v = pf_serve::json::parse(&o.info_json()).expect("valid JSON");
        let note = v.get("provenance").and_then(|p| p.get("failure"));
        assert_eq!(note.and_then(|n| n.as_str()), Some(r#"status "timed_out""#));
    }
}
