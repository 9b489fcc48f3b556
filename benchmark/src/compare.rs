//! `--compare A.json B.json`: two result files of the all-workloads mode
//! side by side, judged by the bounds `BENCHMARK.json` fixes.

use crate::json::{parse, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    /// The within-run spread of either side exceeds the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the base `a`. `bound` is the share of `a` by which
/// the metric may worsen.
pub fn verdict(a: f64, b: f64, spread_a: f64, spread_b: f64, lower: bool, bound: f64) -> Verdict {
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if (lower && b > a * (1.0 + bound)) || (!lower && b < a * (1.0 - bound)) {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn metric(results: &Value, workload: &str, name: &str) -> Option<(f64, f64)> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("spread")?.as_f64()?))
}

/// Renders the comparison table of `b` against the base `a` and counts
/// the `worse` verdicts.
///
/// # Errors
///
/// Returns a message when a document lacks what the table needs.
pub fn table(benchmark: &Value, a: &Value, b: &Value) -> Result<(String, usize), String> {
    let workloads = benchmark
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?;
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end metrics")?;
    let mut out = format!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>9} {:>9}  {}\n",
        "workload", "metric", "A (base)", "B", "B/A", "spread A", "spread B", "verdict"
    );
    let mut worse = 0;
    for w in workloads {
        let w = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("unnamed workload")?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("unnamed metric")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let (va, sa) = metric(a, w, name).ok_or_else(|| format!("A has no {name} for {w}"))?;
            let (vb, sb) = metric(b, w, name).ok_or_else(|| format!("B has no {name} for {w}"))?;
            let v = verdict(va, vb, sa, sb, lower, bound);
            worse += usize::from(v == Verdict::Worse);
            out.push_str(&format!(
                "{w:<14} {name:<14} {va:>14.4} {vb:>14.4} {:>9.4} {sa:>9.4} {sb:>9.4}  {} (bound {bound})\n",
                vb / va,
                v.label()
            ));
        }
    }
    Ok((out, worse))
}

/// Reads the three files and prints the table; `Ok(true)` when nothing is
/// worse.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, worse) = table(&load("BENCHMARK.json")?, &load(a_path)?, &load(b_path)?)?;
    print!("{table}");
    println!("ratios are B over A; {worse} metric(s) worse than their bound");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 8 %.
        assert_eq!(
            verdict(100.0, 107.0, 0.01, 0.02, true, 0.08),
            Verdict::Within
        );
        assert_eq!(
            verdict(100.0, 109.0, 0.01, 0.02, true, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 50.0, 0.01, 0.02, true, 0.08),
            Verdict::Within
        );
        // Higher is better.
        assert_eq!(verdict(100.0, 93.0, 0.0, 0.0, false, 0.08), Verdict::Within);
        assert_eq!(verdict(100.0, 91.0, 0.0, 0.0, false, 0.08), Verdict::Worse);
        // Noise wider than the bound on either side.
        assert_eq!(
            verdict(100.0, 101.0, 0.09, 0.0, true, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 150.0, 0.0, 0.2, true, 0.08),
            Verdict::Unresolved
        );
    }

    #[test]
    fn table_counts_worse_rows() {
        let bench = parse(
            r#"{"workloads": [{"name": "w"}], "end_to_end": [
                {"name": "t", "better": "higher", "bound": 0.1},
                {"name": "l", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let doc = |t: f64, l: f64| {
            parse(&format!(
                r#"{{"workloads": {{"w": {{"end_to_end": {{"metrics": {{
                    "t": {{"value": {t}, "spread": 0.01}},
                    "l": {{"value": {l}, "spread": 0.01}}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (text, worse) = table(&bench, &doc(100.0, 10.0), &doc(80.0, 10.5)).unwrap();
        assert_eq!(worse, 1, "{text}");
        assert!(text.contains("worse") && text.contains("within"), "{text}");
        assert!(table(&bench, &doc(1.0, 1.0), &parse("{}").unwrap()).is_err());
    }
}
