//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer, and written out when the traced pass ends.

use crate::json::Json;
use std::ops::Range;
use std::time::Instant;

pub type SpanId = u32;

/// One span: a bracket around `calls` calls into `layer`.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

/// The spans of one traced pass. A span's id is its index.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Trace::close`] ends it.
    pub fn open(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        layer: &'static str,
    ) -> SpanId {
        let start_ns = self.now();
        self.record(parent, name, layer, start_ns, start_ns, 0)
    }

    /// Ends span `id` now, after `calls` calls into its layer.
    pub fn close(&mut self, id: SpanId, calls: u64) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls;
        end_ns - span.start_ns
    }

    /// Records a span whose ends the caller read itself (per-call spans on
    /// the fault path, where one clock read serves two purposes).
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> SpanId {
        self.spans.push(Span {
            parent,
            name,
            layer,
            start_ns,
            end_ns,
            calls,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id as usize];
        span.end_ns - span.start_ns
    }

    /// Self time per layer over the spans in `range`: each span's duration
    /// minus the part its child spans cover, summed over the spans that
    /// name the layer. Children of one span never overlap here (one thread
    /// records them in sequence).
    pub fn self_ns_by_layer(&self, range: Range<usize>) -> Vec<(&'static str, u64)> {
        let spans = &self.spans[range.clone()];
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in spans {
            let Some(parent) = span.parent.map(|p| p as usize) else {
                continue;
            };
            if range.contains(&parent) {
                let slot = &mut self_ns[parent - range.start];
                *slot = slot.saturating_sub(span.end_ns - span.start_ns);
            }
        }
        let mut layers: Vec<(&'static str, u64)> = Vec::new();
        for (span, ns) in spans.iter().zip(self_ns) {
            match layers.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some((_, total)) => *total += ns,
                None => layers.push((span.layer, ns)),
            }
        }
        layers
    }

    /// Checks that every span names an earlier span as its parent and lies
    /// inside it.
    pub fn validate(&self) -> Result<(), String> {
        for (id, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(format!("span {id} ({}) ends before it starts", span.name));
            }
            let Some(parent) = span.parent else { continue };
            let Some(outer) = self
                .spans
                .get(parent as usize)
                .filter(|_| (parent as usize) < id)
            else {
                return Err(format!("span {id} ({}) names parent {parent}", span.name));
            };
            if span.start_ns < outer.start_ns || span.end_ns > outer.end_ns {
                return Err(format!(
                    "span {id} ({}) is not inside its parent {parent} ({})",
                    span.name, outer.name
                ));
            }
        }
        Ok(())
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Json::obj([
                    ("id", Json::from(id as u64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                    ),
                    ("name", Json::from(span.name)),
                    ("layer", Json::from(span.layer)),
                    ("start_ns", Json::from(span.start_ns)),
                    ("end_ns", Json::from(span.end_ns)),
                    ("calls", Json::from(span.calls)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::from(workload)),
            (
                "clock",
                Json::from("host monotonic ns since the traced pass began"),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_layer() {
        let mut trace = Trace::new();
        let chunk = trace.record(None, "chunk", "vmbench", 0, 100, 1);
        let stage = trace.record(Some(chunk), "translate", "mmu_sim", 10, 70, 8);
        trace.record(Some(stage), "handle_page_fault", "mimic_os", 20, 35, 1);
        trace.record(Some(stage), "handle_page_fault", "mimic_os", 40, 45, 1);
        trace.record(Some(chunk), "retire", "sim_core", 70, 95, 8);
        trace.validate().unwrap();
        let by_layer = trace.self_ns_by_layer(0..trace.spans.len());
        assert_eq!(
            by_layer,
            vec![
                ("vmbench", 15),
                ("mmu_sim", 40),
                ("mimic_os", 20),
                ("sim_core", 25)
            ]
        );
        assert_eq!(by_layer.iter().map(|(_, ns)| ns).sum::<u64>(), 100);
    }

    #[test]
    fn validate_rejects_a_span_outside_its_parent() {
        let mut trace = Trace::new();
        let outer = trace.record(None, "outer", "vmbench", 10, 20, 1);
        trace.record(Some(outer), "inner", "mmu_sim", 15, 25, 1);
        assert!(trace.validate().is_err());
    }
}
