//! Reduces a run's JSONL trace into a per-transaction split of simulated
//! time and client response-time percentiles.
//!
//! For each transaction that commits inside the measurement window:
//!
//! * `admit` — dispatch to its first execution step;
//! * `exec` — first step to the final `done` or `cert` step;
//! * `cert_rtt` — the `cert` step to the certifier's `certify` decision
//!   (update transactions only);
//! * `apply` — `certify` to `complete` (update transactions only);
//! * `resp` — the `complete` record's client-perceived response time.

use std::collections::HashMap;
use std::io::BufRead;

/// Timestamps seen so far for one in-flight transaction, in µs.
#[derive(Debug, Default, Clone, Copy)]
struct Track {
    dispatch: Option<u64>,
    first_step: Option<u64>,
    exec_end: Option<u64>,
    cert_sent: Option<u64>,
    certified: Option<u64>,
}

/// Samples of each split, in simulated µs, over the window's commits.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Split {
    /// Dispatch → first step.
    pub admit: Vec<u64>,
    /// First step → final `done`/`cert` step.
    pub exec: Vec<u64>,
    /// `cert` step → `certify`.
    pub cert_rtt: Vec<u64>,
    /// `certify` → `complete`.
    pub apply: Vec<u64>,
    /// Client-perceived response time.
    pub resp: Vec<u64>,
    /// Events the trailer says were emitted.
    pub events: u64,
    /// Events the trailer says the ring dropped.
    pub dropped: u64,
}

/// The raw text of `key`'s value in one flat JSONL object: a number, a
/// boolean, or a string without its quotes.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(s) = rest.strip_prefix('"') {
        let end = s.find('"')?;
        Some(&s[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn num(line: &str, key: &str) -> Result<u64, String> {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no integer {key:?} in trace line {line:?}"))
}

/// Reduces a JSONL trace. Only transactions whose committed `complete`
/// falls at or after `window_start_us` are counted, matching the
/// run's measurement window.
///
/// # Errors
///
/// Fails on unreadable input, a malformed line, a committed transaction
/// with a missing lifecycle record, or a trace without its trailer.
pub fn reduce(input: impl BufRead, window_start_us: u64) -> Result<Split, String> {
    let mut open: HashMap<u64, Track> = HashMap::new();
    let mut out = Split::default();
    let mut trailer = false;
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading trace: {e}"))?;
        let kind = field(&line, "k").ok_or_else(|| format!("no kind in {line:?}"))?;
        match kind {
            "dispatch" => {
                let track = Track {
                    dispatch: Some(num(&line, "t")?),
                    ..Track::default()
                };
                open.insert(num(&line, "txn")?, track);
            }
            "step" => {
                let t = num(&line, "t")?;
                let track = open.entry(num(&line, "txn")?).or_default();
                track.first_step.get_or_insert(t);
                match field(&line, "outcome") {
                    Some("done") => track.exec_end = Some(t),
                    Some("cert") => {
                        track.exec_end = Some(t);
                        track.cert_sent = Some(t);
                    }
                    _ => {}
                }
            }
            "certify" if field(&line, "committed") == Some("true") => {
                let t = num(&line, "t")?;
                open.entry(num(&line, "txn")?).or_default().certified = Some(t);
            }
            "complete" => {
                let t = num(&line, "t")?;
                let track = open.remove(&num(&line, "txn")?).unwrap_or_default();
                if field(&line, "committed") != Some("true") || t < window_start_us {
                    continue;
                }
                let missing = || format!("committed transaction lacks its lifecycle: {line:?}");
                let dispatch = track.dispatch.ok_or_else(missing)?;
                let first = track.first_step.ok_or_else(missing)?;
                let exec_end = track.exec_end.ok_or_else(missing)?;
                out.admit.push(first - dispatch);
                out.exec.push(exec_end - first);
                if let Some(sent) = track.cert_sent {
                    let certified = track.certified.ok_or_else(missing)?;
                    out.cert_rtt.push(certified - sent);
                    out.apply.push(t - certified);
                }
                out.resp.push(num(&line, "resp_us")?);
            }
            "summary" => {
                out.events = num(&line, "events")?;
                out.dropped = num(&line, "dropped")?;
                trailer = true;
            }
            _ => {}
        }
    }
    if !trailer {
        return Err("trace has no summary trailer".into());
    }
    Ok(out)
}

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A read-only commit (txn 1), an update commit (txn 2), an aborted
    /// update (txn 3), and a commit before the window (txn 4).
    const SNIPPET: &str = r#"{"k":"arrive","t":900,"txn":4,"client":3,"ty":0,"name":"Home","retries":0}
{"k":"dispatch","t":900,"txn":4,"replica":0}
{"k":"step","t":950,"txn":4,"replica":0,"outcome":"done","next":960,"ws":0}
{"k":"complete","t":960,"txn":4,"replica":0,"committed":true,"resp_us":1260}
{"k":"arrive","t":1000,"txn":1,"client":0,"ty":2,"name":"Best, Sellers","retries":0}
{"k":"dispatch","t":1000,"txn":1,"replica":0}
{"k":"arrive","t":1010,"txn":2,"client":1,"ty":5,"name":"BuyConfirm","retries":0}
{"k":"dispatch","t":1010,"txn":2,"replica":1}
{"k":"step","t":1200,"txn":1,"replica":0,"outcome":"exec","next":1300,"ws":0}
{"k":"step","t":1300,"txn":1,"replica":0,"outcome":"done","next":1310,"ws":0}
{"k":"step","t":1250,"txn":2,"replica":1,"outcome":"exec","next":1400,"ws":0}
{"k":"complete","t":1310,"txn":1,"replica":0,"committed":true,"resp_us":610}
{"k":"step","t":1400,"txn":2,"replica":1,"outcome":"cert","next":1500,"ws":4096}
{"k":"dispatch","t":1420,"txn":3,"replica":1}
{"k":"step","t":1450,"txn":3,"replica":1,"outcome":"cert","next":1550,"ws":512}
{"k":"certify","t":1500,"txn":2,"groups":0,"committed":true,"version":7}
{"k":"certify","t":1550,"txn":3,"groups":0,"committed":false}
{"k":"complete","t":1600,"txn":3,"replica":1,"committed":false,"resp_us":480}
{"k":"util","t":2000,"replica":0,"cpu":0.500000,"disk":0.250000,"queue":1,"resident":8192,"backfill":0}
{"k":"complete","t":2100,"txn":2,"replica":1,"committed":true,"resp_us":1390}
{"k":"summary","events":20,"recorded":20,"dropped":0}
"#;

    #[test]
    fn reducer_splits_hand_written_trace() {
        let s = reduce(SNIPPET.as_bytes(), 1000).unwrap();
        assert_eq!(s.admit, vec![200, 240]);
        assert_eq!(s.exec, vec![100, 150]);
        assert_eq!(s.cert_rtt, vec![100]);
        assert_eq!(s.apply, vec![600]);
        assert_eq!(s.resp, vec![610, 1390]);
        assert_eq!((s.events, s.dropped), (20, 0));
        // Moving the window start to zero admits txn 4 as well.
        assert_eq!(reduce(SNIPPET.as_bytes(), 0).unwrap().resp.len(), 3);
    }

    #[test]
    fn reducer_rejects_truncated_or_broken_traces() {
        let no_trailer = SNIPPET.lines().filter(|l| !l.contains("summary"));
        let text: String = no_trailer.map(|l| format!("{l}\n")).collect();
        assert!(reduce(text.as_bytes(), 0).is_err());
        let orphan = r#"{"k":"complete","t":5,"txn":9,"replica":0,"committed":true,"resp_us":5}"#;
        assert!(reduce(orphan.as_bytes(), 0).is_err());
    }

    #[test]
    fn field_reads_numbers_booleans_and_strings() {
        let line = r#"{"k":"complete","t":12,"committed":true,"name":"a,b"}"#;
        assert_eq!(field(line, "k"), Some("complete"));
        assert_eq!(field(line, "t"), Some("12"));
        assert_eq!(field(line, "committed"), Some("true"));
        assert_eq!(field(line, "name"), Some("a,b"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut [], 50.0), 0);
    }
}
