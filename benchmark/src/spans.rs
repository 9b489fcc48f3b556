//! The benchmark's own spans: recorded around its calls into each layer
//! (never inside the program), kept in memory, written as Chrome trace
//! JSON when the traced run ends.

use std::time::Instant;

use crate::json::quote;
use crate::stats::median;

/// Warm-up calls before a replayed layer function is timed.
pub const WARMUPS: usize = 3;
/// Timed calls per replayed layer function (the metric is their median).
pub const REPS: usize = 15;

struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span log of one workload's traced run.
pub struct Spans {
    workload: &'static str,
    epoch: Instant,
    recs: Vec<Rec>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Self {
        Spans {
            workload,
            epoch: Instant::now(),
            recs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by `parent`; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.recs.push(Rec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.recs.len() - 1
    }

    /// Closes span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let rec = &mut self.recs[id];
        rec.end_ns = end_ns;
        (end_ns - rec.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Replays one layer function: [`WARMUPS`] untimed calls, then
    /// [`REPS`] calls each inside a child span of `parent`. Returns the
    /// median seconds.
    pub fn replay(&mut self, name: &'static str, parent: usize, mut f: impl FnMut()) -> f64 {
        self.replay_with(name, parent, &mut (), |_| (), |_| f())
    }

    /// [`Self::replay`] for a function that consumes what it works on:
    /// `setup` runs untimed on `state` before every call of `f`.
    pub fn replay_with<S>(
        &mut self,
        name: &'static str,
        parent: usize,
        state: &mut S,
        mut setup: impl FnMut(&mut S),
        mut f: impl FnMut(&mut S),
    ) -> f64 {
        for _ in 0..WARMUPS {
            setup(state);
            f(state);
        }
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                setup(state);
                self.timed(name, Some(parent), || f(state)).1
            })
            .collect();
        median(&samples)
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, nested by containment on the thread of its depth-0
    /// ancestor; `args` carries the workload and the causing span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, r) in self.recs.iter().enumerate() {
            let parent = match r.parent {
                Some(p) => format!("{p}:{}", self.recs[p].name),
                None => "none".into(),
            };
            out.push_str(&format!(
                "{{\"name\": {}, \"cat\": \"benchmark\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}, \
                 \"workload\": {}}}}}{}\n",
                quote(r.name),
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                quote(&parent),
                quote(self.workload),
                if id + 1 == self.recs.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn replay_records_one_child_span_per_timed_call() {
        let mut spans = Spans::new("toy");
        let step = spans.open("step", None);
        let mut setups = 0;
        let mut calls = 0;
        let t = spans.replay_with(
            "layer.fn",
            step,
            &mut calls,
            |_| setups += 1,
            |calls| {
                *calls += 1;
                std::hint::black_box((0..1000).sum::<u64>());
            },
        );
        spans.close(step);
        assert!(t > 0.0);
        assert_eq!(setups, WARMUPS + REPS);
        assert_eq!(calls, WARMUPS + REPS);
        assert_eq!(spans.len(), 1 + REPS);
        let doc = parse(&spans.chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1 + REPS);
        let child = &events[1];
        assert_eq!(child.get("name").unwrap().as_str(), Some("layer.fn"));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_str(), Some("0:step"));
        assert_eq!(args.get("workload").unwrap().as_str(), Some("toy"));
        // The parent contains its children.
        let (p_ts, p_dur) = (
            events[0].get("ts").unwrap().as_f64().unwrap(),
            events[0].get("dur").unwrap().as_f64().unwrap(),
        );
        let (c_ts, c_dur) = (
            child.get("ts").unwrap().as_f64().unwrap(),
            child.get("dur").unwrap().as_f64().unwrap(),
        );
        assert!(c_ts >= p_ts && c_ts + c_dur <= p_ts + p_dur + 1e-3);
    }
}
