//! `benchmark compare <dirA> <dirB>`: judges B (the change) against A (the
//! parent) from the untraced run reports in each directory, with the
//! bounds `BENCHMARK.json` fixes, by the rule of choosing-metrics §8.

use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;
use xbar_obs::json::Json;

/// One end-to-end metric's declaration.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The end-to-end metrics of a `BENCHMARK.json`.
pub fn bounds(bench_json: &str) -> Result<Vec<Bound>, String> {
    let json = Json::parse(bench_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Bound {
                name: s("name").ok_or("metric without name")?,
                unit: s("unit").ok_or("metric without unit")?,
                higher_is_better: s("better").as_deref() == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Untraced values by (workload, metric), each keyed by seed.
type Runs = BTreeMap<(String, String), BTreeMap<u64, f64>>;

/// Reads every untraced run report (`*.json` with `"trace": false`) in `dir`.
pub fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(report) = Json::parse(&text) else {
            continue;
        };
        if report.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let (Some(workload), Some(seed), Some(Json::Obj(metrics))) = (
            report.get("workload").and_then(Json::as_str),
            report.get("seed").and_then(Json::as_u64),
            report.get("metrics"),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .insert(seed, v);
            }
        }
    }
    Ok(runs)
}

/// The judgement on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Side-by-side statistics of one (workload, metric).
#[derive(Debug, Clone)]
pub struct Row {
    pub a: [f64; 4],
    pub b: [f64; 4],
    pub win_fraction: f64,
    pub verdict: Verdict,
}

/// `[q1, median, q3, relative spread (q3 − q1) / median]`.
fn summary(v: &[f64]) -> [f64; 4] {
    let [q1, _, q3] = quartiles(v);
    let med = median(v);
    [
        q1,
        med,
        q3,
        if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        },
    ]
}

/// Fewest run pairs a gain may be claimed on.
const MIN_PAIRS: usize = 10;

/// Compares the runs of A and B. Runs pair up by seed where both sides
/// ran it, otherwise in seed order.
pub fn judge(a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>, bound: &Bound) -> Row {
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let common: Vec<u64> = a.keys().filter(|k| b.contains_key(k)).copied().collect();
    let pairs: Vec<(f64, f64)> = if common.is_empty() {
        a.values().zip(b.values()).map(|(x, y)| (*x, *y)).collect()
    } else {
        common.iter().map(|k| (a[k], b[k])).collect()
    };
    let wins = pairs.iter().filter(|(x, y)| better(*y, *x)).count();
    let win_fraction = wins as f64 / pairs.len().max(1) as f64;
    let av: Vec<f64> = a.values().copied().collect();
    let bv: Vec<f64> = b.values().copied().collect();
    let (sa, sb) = (summary(&av), summary(&bv));
    let worse_by = if bound.higher_is_better {
        (sa[1] - sb[1]) / sa[1].abs()
    } else {
        (sb[1] - sa[1]) / sa[1].abs()
    };
    let all_better = bv.iter().all(|y| av.iter().all(|x| better(*y, *x)));
    let verdict =
        if pairs.len() >= MIN_PAIRS && win_fraction >= 0.9 && (sb[1] - sa[1]).abs() > sa[2] - sa[0]
        {
            Verdict::Improved
        } else if worse_by > bound.bound {
            Verdict::Regressed
        } else if sa[3] > bound.bound && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::NoWorse
        };
    Row {
        a: sa,
        b: sb,
        win_fraction,
        verdict,
    }
}

/// Prints the comparison table; returns whether anything regressed.
pub fn run(dir_a: &Path, dir_b: &Path, bench_json: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(bench_json)
        .map_err(|e| format!("{}: {e}", bench_json.display()))?;
    let bounds = bounds(&text)?;
    let (ra, rb) = (load_runs(dir_a)?, load_runs(dir_b)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = ra.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    if workloads.is_empty() {
        return Err(format!("no untraced run reports in {}", dir_a.display()));
    }
    println!(
        "{:<7} {:<12} {:<6} {:>34} {:>34} {:>5}  verdict",
        "work", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "win"
    );
    let mut regressed = false;
    for w in workloads {
        for bound in &bounds {
            let key = (w.clone(), bound.name.clone());
            let (Some(a), Some(b)) = (ra.get(&key), rb.get(&key)) else {
                println!("{w:<7} {:<12} missing on one side", bound.name);
                regressed = true;
                continue;
            };
            let row = judge(a, b, bound);
            regressed |= row.verdict == Verdict::Regressed;
            let cell = |s: [f64; 4]| format!("{:.4} [{:.4}, {:.4}]", s[1], s[0], s[2]);
            println!(
                "{w:<7} {:<12} {:<6} {:>34} {:>34} {:>5.2}  {}",
                bound.name,
                bound.unit,
                cell(row.a),
                cell(row.b),
                row.win_fraction,
                row.verdict.as_str()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    fn runs(v: &[f64]) -> BTreeMap<u64, f64> {
        v.iter().enumerate().map(|(i, x)| (i as u64, *x)).collect()
    }

    #[test]
    fn verdicts_follow_the_bounds_and_the_win_rule() {
        let a = runs(&[10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]);
        let faster = runs(&[8.0, 8.1, 7.9, 8.0, 8.05, 7.95, 8.0, 8.02, 7.98, 8.0]);
        assert_eq!(judge(&a, &faster, &bound(false)).verdict, Verdict::Improved);
        assert_eq!(judge(&a, &faster, &bound(false)).win_fraction, 1.0);
        assert_eq!(judge(&a, &a, &bound(false)).verdict, Verdict::NoWorse);
        // Five pairs are too few to claim a gain, however clear.
        let first5 = |m: &BTreeMap<u64, f64>| m.iter().take(5).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(
            judge(&first5(&a), &first5(&faster), &bound(false)).verdict,
            Verdict::NoWorse
        );
        // 20 % slower on a lower-is-better metric.
        let slower = runs(&[
            12.0, 12.1, 11.9, 12.0, 12.05, 11.95, 12.0, 12.02, 11.98, 12.0,
        ]);
        assert_eq!(
            judge(&a, &slower, &bound(false)).verdict,
            Verdict::Regressed
        );
        // The same numbers as a throughput: higher is better.
        assert_eq!(judge(&a, &slower, &bound(true)).verdict, Verdict::Improved);
        assert_eq!(judge(&a, &faster, &bound(true)).verdict, Verdict::Regressed);
        // Spread wider than the bound: no claim either way.
        let noisy = runs(&[5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]);
        assert_eq!(
            judge(&noisy, &noisy, &bound(false)).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let b = bounds(r#"{"end_to_end":[{"name":"x","unit":"s","better":"higher","bound":0.2}]}"#)
            .unwrap();
        assert_eq!(b.len(), 1);
        assert!(b[0].higher_is_better);
        assert_eq!(b[0].bound, 0.2);
        assert!(bounds("{}").is_err());
    }
}
