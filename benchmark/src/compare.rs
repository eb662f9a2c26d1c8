//! `compare A.json B.json`: the referee between two run documents. One row
//! per (workload, end-to-end metric) with both reported values, both medians
//! and inter-quartile spreads over the rounds, the ratio with its base, and
//! a verdict.

use crate::json::Json;
use crate::spec::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the metric's bound.
    Regressed,
    /// The spread between rounds is wider than the bound: no verdict.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value (the best round), with the
/// rounds' median and inter-quartile spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub median: f64,
    pub iqr: f64,
}

/// How much worse `b` is than `a`: a share of `a`, or the plain difference
/// for a metric with an absolute bound. Negative when `b` is better.
pub fn worse_by(a: f64, b: f64, better: Better, absolute: bool) -> f64 {
    let diff = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if absolute {
        diff
    } else if a == 0.0 {
        if diff > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        diff / a.abs()
    }
}

pub fn verdict(a: Side, b: Side, better: Better, bound: f64, absolute: bool) -> Verdict {
    if worse_by(a.value, b.value, better, absolute) > bound {
        return Verdict::Regressed;
    }
    let spread = |s: Side| {
        if absolute || s.median == 0.0 {
            s.iqr.abs()
        } else {
            (s.iqr / s.median).abs()
        }
    };
    if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

fn side(m: &Json) -> Option<Side> {
    let value = m.get("value")?.as_f64()?;
    Some(Side {
        value,
        median: m.get("median").and_then(Json::as_f64).unwrap_or(value),
        iqr: m.get("iqr").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Every (workload, end-to-end metric) pair present in both documents.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Json| doc.get("workloads").map(Json::fields).map(<[_]>::to_vec);
    let (wa, wb) = (
        workloads(a).ok_or("first file has no `workloads`")?,
        workloads(b).ok_or("second file has no `workloads`")?,
    );
    let mut rows = Vec::new();
    for (name, da) in &wa {
        let Some((_, db)) = wb.iter().find(|(n, _)| n == name) else {
            return Err(format!("workload `{name}` is missing from the second file"));
        };
        let metrics = da.get("end_to_end").map(Json::fields).unwrap_or(&[]);
        for (metric, ma) in metrics {
            let spec = spec::end_to_end(metric)
                .ok_or_else(|| format!("unknown end-to-end metric `{metric}`"))?;
            let mb = db
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .ok_or_else(|| format!("`{name}.{metric}` is missing from the second file"))?;
            let (sa, sb) = (
                side(ma).ok_or_else(|| format!("`{name}.{metric}` has no value"))?,
                side(mb).ok_or_else(|| format!("`{name}.{metric}` has no value"))?,
            );
            rows.push(Row {
                workload: name.clone(),
                metric: metric.clone(),
                unit: spec.unit.to_string(),
                a: sa,
                b: sb,
                verdict: verdict(sa, sb, spec.better, spec.bound, spec.absolute),
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<13} {:>11} {:>11} {:>9} {:>11} {:>11} {:>9}  {:<26} {}\n",
        "workload",
        "metric",
        "A value",
        "A median",
        "A iqr",
        "B value",
        "B median",
        "B iqr",
        "B / A (base A)",
        "verdict"
    );
    for r in rows {
        let ratio = if r.a.value == 0.0 {
            format!("n/a of {} {}", r.a.value, r.unit)
        } else {
            format!(
                "{:.3}x of {:.4} {}",
                r.b.value / r.a.value,
                r.a.value,
                r.unit
            )
        };
        out.push_str(&format!(
            "{:<18} {:<13} {:>11.4} {:>11.4} {:>9.4} {:>11.4} {:>11.4} {:>9.4}  {:<26} {}\n",
            r.workload,
            r.metric,
            r.a.value,
            r.a.median,
            r.a.iqr,
            r.b.value,
            r.b.median,
            r.b.iqr,
            ratio,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, iqr: f64) -> Side {
        Side {
            value,
            median: value,
            iqr,
        }
    }

    #[test]
    fn verdicts_on_hand_made_pairs() {
        use Better::{Higher, Lower};
        // Latency up 5 % against a 10 % bound, tight rounds: ok.
        assert_eq!(
            verdict(s(100.0, 2.0), s(105.0, 2.0), Lower, 0.10, false),
            Verdict::Ok
        );
        // Latency up 15 %: regressed, whatever the spread.
        assert_eq!(
            verdict(s(100.0, 2.0), s(115.0, 2.0), Lower, 0.10, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(s(100.0, 50.0), s(115.0, 2.0), Lower, 0.10, false),
            Verdict::Regressed
        );
        // Latency *down* 30 % is not a regression.
        assert_eq!(
            verdict(s(100.0, 2.0), s(70.0, 2.0), Lower, 0.10, false),
            Verdict::Ok
        );
        // Throughput is better when higher: down 15 % regresses, up 15 % does not.
        assert_eq!(
            verdict(s(1000.0, 10.0), s(850.0, 10.0), Higher, 0.10, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(s(1000.0, 10.0), s(1150.0, 10.0), Higher, 0.10, false),
            Verdict::Ok
        );
        // Within the bound, but one side's rounds spread 20 %: unresolved.
        assert_eq!(
            verdict(s(100.0, 20.0), s(103.0, 2.0), Lower, 0.10, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(s(100.0, 2.0), s(103.0, 25.0), Lower, 0.10, false),
            Verdict::Unresolved
        );
        // failed_frac has an absolute bound of 0.001.
        assert_eq!(
            verdict(s(0.0, 0.0), s(0.0, 0.0), Lower, 0.001, true),
            Verdict::Ok
        );
        assert_eq!(
            verdict(s(0.0, 0.0), s(0.01, 0.0), Lower, 0.001, true),
            Verdict::Regressed
        );
    }

    fn doc(p50: f64, iqr: f64, ops: f64) -> Json {
        let metric = |v: f64, iqr: f64| Json::obj().with("value", v).with("iqr", iqr);
        Json::obj().with(
            "workloads",
            Json::obj().with(
                "graph_prepared",
                Json::obj().with(
                    "end_to_end",
                    Json::obj()
                        .with("read_p50_us", metric(p50, iqr))
                        .with("read_ops_s", metric(ops, 0.0)),
                ),
            ),
        )
    }

    #[test]
    fn compares_documents_row_by_row() {
        let rows = compare(&doc(70.0, 1.0, 14_000.0), &doc(90.0, 1.0, 14_100.0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "read_p50_us");
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        let table = render(&rows);
        assert!(table.contains("1.286x of 70.0000 us"), "{table}");
        assert!(table.contains("regressed"));
        // A workload missing on one side is an error, not a silent skip.
        let empty = Json::obj().with("workloads", Json::obj());
        assert!(compare(&doc(70.0, 1.0, 1.0), &empty).is_err());
    }
}
