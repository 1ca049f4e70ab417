//! `perf compare a/results.json b/results.json`: one row per
//! (end-to-end metric, workload) with both medians and quartiles, the
//! bound, and a verdict. Every ratio is printed with its base.

use crate::json::{self, Value};
use crate::spec::END_TO_END;
use crate::stats::{sig6, summarize, verdict, Verdict};

/// One compared (workload, metric) pair.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub verdict: Verdict,
}

/// The comparison of two `results.json` documents.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// `(workload, fingerprint a, fingerprint b)`.
    pub fingerprints: Vec<(String, String, String)>,
    /// Workloads whose `failed_share` rose from a to b.
    pub failed_share_rose: Vec<String>,
}

impl Comparison {
    /// Whether `compare` should exit non-zero.
    pub fn regressed(&self) -> bool {
        !self.failed_share_rose.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }
}

fn values(workload: &Value, metric: &str) -> Result<Vec<f64>, String> {
    workload
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_arr)
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect::<Vec<f64>>())
        .filter(|vs| !vs.is_empty())
        .ok_or_else(|| format!("missing metrics.{metric}.values"))
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| String::from("no \"workloads\" array"))
}

/// Compares two parsed `results.json` documents workload by workload.
/// Workloads present in only one of them are an error: a comparison
/// that silently skips rows would read as "no regression".
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let name = |w: &Value| {
        w.get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let names_a: Vec<String> = wa.iter().map(name).collect();
    let names_b: Vec<String> = wb.iter().map(name).collect();
    if names_a != names_b {
        return Err(format!("workload lists differ: {names_a:?} vs {names_b:?}"));
    }
    let mut out = Comparison::default();
    for (x, y) in wa.iter().zip(wb) {
        let workload = name(x);
        let fp = |w: &Value| {
            w.get("fingerprint")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        out.fingerprints.push((workload.clone(), fp(x), fp(y)));
        for m in &END_TO_END {
            let (va, vb) = (values(x, m.name)?, values(y, m.name)?);
            let mut v = verdict(&va, &vb, m.better, m.bound);
            if m.name == "failed_share" && summarize(&vb).median > summarize(&va).median {
                out.failed_share_rose.push(workload.clone());
                v = Verdict::Worse;
            }
            out.rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: va,
                b: vb,
                verdict: v,
            });
        }
    }
    Ok(out)
}

/// Reads and compares two `results.json` files.
pub fn compare_files(a: &str, b: &str) -> Result<Comparison, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    compare(&load(a)?, &load(b)?)
}

pub fn print(c: &Comparison) {
    println!(
        "{:<20} {:<24} {:>12} {:>30} {:>12} {:>30} {:>22} {:>16}  verdict",
        "workload",
        "metric",
        "a median",
        "a [q1, q3] n",
        "b median",
        "b [q1, q3] n",
        "b/a (base a)",
        "bound"
    );
    for r in &c.rows {
        let (sa, sb) = (summarize(&r.a), summarize(&r.b));
        let m = crate::spec::end_to_end(r.metric).expect("rows come from END_TO_END");
        let change = if sa.median == 0.0 {
            String::from("n/a (base 0)")
        } else {
            format!("{:.4} of {}", sb.median / sa.median, sig6(sa.median))
        };
        let quartiles =
            |s: &crate::stats::Summary| format!("[{}, {}] {}", sig6(s.q1), sig6(s.q3), s.n);
        println!(
            "{:<20} {:<24} {:>12} {:>30} {:>12} {:>30} {:>22} {:>16}  {}",
            r.workload,
            r.metric,
            sig6(sa.median),
            quartiles(&sa),
            sig6(sb.median),
            quartiles(&sb),
            change,
            format!("max({}%, {})", m.bound.rel * 100.0, m.bound.abs),
            r.verdict.as_str()
        );
    }
    println!("\nfingerprints (a | b):");
    for (w, a, b) in &c.fingerprints {
        let same = if a == b { "identical" } else { "DIFFERENT" };
        println!("  {w:<20} {a} | {b}  {same}");
    }
    for w in &c.failed_share_rose {
        println!("failed_share rose on {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn doc(wall: &[f64], failed_share: f64) -> Value {
        let metric = |vals: &[f64]| obj([("values", Value::from(vals.to_vec()))]);
        let metrics = obj(END_TO_END.iter().map(|m| {
            let vals = match m.name {
                "wall_s" => metric(wall),
                "failed_share" => metric(&[failed_share]),
                _ => metric(&[1.0, 1.0, 1.0]),
            };
            (m.name, vals)
        }));
        obj([(
            "workloads",
            Value::Arr(vec![obj([
                ("name", Value::from("w")),
                ("fingerprint", Value::from("00ff")),
                ("metrics", metrics),
            ])]),
        )])
    }

    #[test]
    fn identical_runs_are_within_and_do_not_regress() {
        let a = doc(&[1.0, 1.01, 0.99, 1.0, 1.0], 0.0);
        let c = compare(&a, &a).unwrap();
        assert_eq!(c.rows.len(), END_TO_END.len());
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Within));
        assert!(!c.regressed());
        assert_eq!(c.fingerprints[0].1, c.fingerprints[0].2);
    }

    #[test]
    fn slower_wall_or_more_failures_regress() {
        let a = doc(&[1.0, 1.01, 0.99, 1.0, 1.0], 0.0);
        let slow = doc(&[1.3, 1.31, 1.29, 1.3, 1.3], 0.0);
        let c = compare(&a, &slow).unwrap();
        let wall = c.rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert_eq!(wall.verdict, Verdict::Worse);
        assert!(c.regressed());
        assert!(!compare(&slow, &a).unwrap().regressed());

        let failing = doc(&[1.0, 1.01, 0.99, 1.0, 1.0], 0.01);
        let c = compare(&a, &failing).unwrap();
        assert_eq!(c.failed_share_rose, vec![String::from("w")]);
        assert!(c.regressed());
    }

    #[test]
    fn mismatched_documents_are_errors_not_skips() {
        let a = doc(&[1.0], 0.0);
        assert!(compare(&a, &obj([("workloads", Value::Arr(Vec::new()))])).is_err());
        assert!(compare(&a, &Value::Null).is_err());
    }
}
