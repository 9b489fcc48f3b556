//! The one place device threads start: a [`DeviceGroup`] of `world`
//! devices hands each thread its endpoint of one p2p network, its
//! communication stream, its tracer slot and its share of the kernel lanes,
//! [`pool::lanes_per_device`] of them on the thread and on the stream (whose
//! barrier jobs run kernels too), as a PTD-P rank owns its execution
//! resources. Joining yields one `Result` per device. The communicator
//! layout stays with the caller. A training run ([`crate::train`]) is the
//! group run to completion; a serving engine ([`crate::ServeEngine`]) is the
//! group fed commands.

use std::any::Any;
use std::thread::{self, JoinHandle};
use vp_collectives::{CommStream, P2pEndpoint, P2pNetwork};
use vp_tensor::{pool, Result, TensorError};
use vp_trace::{TraceLog, Tracer};

/// What the group gives one device, all of it writing the device's
/// timeline through clones of `tracer` ([`Tracer::off`] when untraced).
pub(crate) struct DeviceSlot {
    pub(crate) endpoint: P2pEndpoint,
    pub(crate) stream: CommStream,
    pub(crate) tracer: Tracer,
}

/// `world` running device threads, indexed by global rank.
pub(crate) struct DeviceGroup<T> {
    threads: Vec<JoinHandle<Result<T>>>,
}

impl<T: Send + 'static> DeviceGroup<T> {
    /// Starts one thread per device. `body` runs on the caller's thread in
    /// rank order, taking the device's slot and returning what its thread
    /// runs; `log` supplies the tracers, by global rank.
    pub(crate) fn spawn<F>(
        world: usize,
        log: Option<&TraceLog>,
        mut body: impl FnMut(DeviceSlot) -> F,
    ) -> Self
    where
        F: FnOnce() -> Result<T> + Send + 'static,
    {
        let lanes = pool::lanes_per_device(world);
        let threads = P2pNetwork::new(world)
            .into_iter()
            .map(|mut endpoint| {
                let rank = endpoint.rank();
                let tracer = log.map_or_else(Tracer::off, |l| l.tracer(rank));
                let mut stream = CommStream::new();
                // Budgeted before the tracer is attached: no trace records it.
                stream.submit(move || pool::set_lane_budget(lanes));
                stream.set_tracer(tracer.clone());
                endpoint.set_tracer(tracer.clone());
                let run = body(DeviceSlot {
                    endpoint,
                    stream,
                    tracer,
                });
                let budgeted = move || {
                    pool::set_lane_budget(lanes);
                    run()
                };
                thread::Builder::new()
                    .name(format!("device-{rank}"))
                    .spawn(budgeted)
                    .expect("failed to spawn a device thread")
            })
            .collect();
        DeviceGroup { threads }
    }

    /// Waits for every device. A device that panicked is an error naming
    /// its global rank and the panic message.
    pub(crate) fn join(self) -> Vec<Result<T>> {
        let joined = self.threads.into_iter().map(JoinHandle::join);
        joined
            .enumerate()
            .map(|(rank, joined)| {
                joined.unwrap_or_else(|panic| {
                    let text = panic_text(&*panic);
                    Err(TensorError::InvalidArgument(format!(
                        "device {rank} panicked: {text}"
                    )))
                })
            })
            .collect()
    }
}

/// What a panic said: its message, formatted or literal.
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("a non-text payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicked_device_is_a_named_error_and_both_threads_are_budgeted() {
        let world = 2;
        let group = DeviceGroup::spawn(world, None, |slot| {
            move || {
                let on_stream = slot.stream.submit(pool::lane_budget).wait();
                assert!(
                    slot.endpoint.rank() != 1,
                    "device 1 fails before it communicates"
                );
                Ok((pool::lane_budget(), on_stream))
            }
        });
        let mut results = group.join().into_iter();
        let lanes = Some(pool::lanes_per_device(world));
        assert_eq!(results.next().unwrap().unwrap(), (lanes, lanes));
        let err = results.next().unwrap().unwrap_err().to_string();
        assert!(
            err.contains("device 1 panicked") && err.contains("fails before it communicates"),
            "{err}"
        );
        assert!(results.next().is_none());
    }
}
