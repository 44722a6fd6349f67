//! `lc-perf --compare A B`: the A/A table.  `A` and `B` hold one line per
//! workload, `<workload>\t<result object>`, as `aa.sh` saves them from two
//! runs of the same code with different seeds.

use crate::metrics::END_TO_END;
use crate::workload::Kind;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The `"name": {"value": x, ...}` pairs of a result object this program
/// printed (not a general JSON reader).
pub fn metric_values(result: &str) -> BTreeMap<String, f64> {
    let mut values = BTreeMap::new();
    let marker = "\": {\"value\": ";
    let mut rest = result;
    while let Some(at) = rest.find(marker) {
        let name_start = rest[..at].rfind('"').map_or(0, |q| q + 1);
        let after = &rest[at + marker.len()..];
        let end = after.find([',', '}']).unwrap_or(after.len());
        if let Ok(value) = after[..end].trim().parse() {
            values.insert(rest[name_start..at].to_string(), value);
        }
        rest = &after[end..];
    }
    values
}

fn read(path: &str) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|line| line.split_once('\t'))
        .map(|(workload, result)| (workload.to_string(), metric_values(result)))
        .collect())
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("--compare takes two files".to_string());
    };
    let (a, b) = (read(a)?, read(b)?);
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "median A", "median B", "rel diff", "bound"
    );
    let mut over = 0;
    for kind in Kind::ALL {
        for metric in END_TO_END {
            let value = |run: &BTreeMap<String, BTreeMap<String, f64>>| {
                run.get(kind.name())
                    .and_then(|m| m.get(metric.name))
                    .copied()
                    .ok_or_else(|| format!("no {} for {}", metric.name, kind.name()))
            };
            let (x, y) = (value(&a)?, value(&b)?);
            let diff = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff > metric.bound {
                over += 1;
                "  OVER"
            } else {
                ""
            };
            println!(
                "{:<14} {:<20} {x:>16.4} {y:>16.4} {diff:>9.4} {:>6}{verdict}",
                kind.name(),
                metric.name,
                metric.bound
            );
        }
    }
    if over > 0 {
        println!(
            "{over} metrics differ between two runs of the same code by more than their bound"
        );
        return Ok(ExitCode::from(1));
    }
    println!("every end-to-end metric agrees within its bound");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_a_result_object() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": {"value": 1234.5, "unit": "1/s"}, "setup_s": {"value": 0.0004, "unit": "s"}}}"#;
        let values = metric_values(line);
        assert_eq!(values.len(), 2);
        assert_eq!(values["ops_per_s"], 1234.5);
        assert_eq!(values["setup_s"], 0.0004);
    }
}
