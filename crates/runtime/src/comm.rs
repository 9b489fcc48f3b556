//! Communication plumbing of the schedule interpreter: point-to-point tag
//! spaces, tensor↔packet conversion, and the virtual-stage geometry shared
//! by all pass handlers.
//!
//! The tag layout mirrors §6.1's channel separation:
//!
//! * stage-boundary activations ([`TAG_ACT`]) and gradients ([`TAG_GRAD`])
//!   carry the destination virtual stage in bits 24.., so a device hosting
//!   several chunks can demultiplex V-shape or round-robin traffic;
//! * `C0` ([`TAG_C0`]) is the broadcast of the last virtual stage's output
//!   to every vocabulary shard;
//! * `C2` ([`TAG_C2`]) is Algorithm 1's `∇X` fan-in back to the last
//!   stage's device;
//! * the sharded input layer uses [`TAG_INPART`] (partial-embedding fan-in
//!   to the first virtual stage) and [`TAG_INGRAD`] (embedding-gradient
//!   fan-out back to the shards).

use vp_collectives::{P2pEndpoint, Packet};
use vp_schedule::pass::{placement_device_of, placement_stage_of, ChunkPlacement, Schedule};
use vp_tensor::{Result, Tensor, TensorError};
use vp_trace::Tracer;

/// Stage-boundary activation traffic.
pub(crate) const TAG_ACT: u64 = 1 << 40;
/// Stage-boundary gradient traffic.
pub(crate) const TAG_GRAD: u64 = 2 << 40;
/// `C0`: last-stage output broadcast to all vocabulary shards.
pub(crate) const TAG_C0: u64 = 3 << 40;
/// `C2`: Algorithm 1's partial-`∇X` fan-in.
pub(crate) const TAG_C2: u64 = 4 << 40;
/// Sharded input layer: partial-embedding fan-in.
pub(crate) const TAG_INPART: u64 = 5 << 40;
/// Sharded input layer: embedding-gradient fan-out.
pub(crate) const TAG_INGRAD: u64 = 6 << 40;

/// Composes a boundary-traffic tag: channel base, destination virtual
/// stage (bits 24..) and microbatch index (low bits).
pub(crate) fn stage_tag(base: u64, vs: usize, k: u32) -> u64 {
    base | ((vs as u64) << 24) | k as u64
}

/// Wraps a tensor into a tagged packet.
fn to_packet(tag: u64, t: &Tensor) -> Packet {
    Packet::new(tag, t.rows(), t.cols(), t.data().to_vec())
}

/// Unwraps a packet back into a tensor, copying the payload into a pooled
/// buffer.
fn from_packet(p: &Packet) -> Tensor {
    let mut t = Tensor::zeros(p.rows, p.cols);
    t.data_mut().copy_from_slice(&p.data);
    t
}

/// One device's tensor channel to the stages of its own pipeline: the p2p
/// endpoint plus the map from a pipeline rank to that stage's global
/// address in this device's column (`base + stage · stride`), so
/// stage-boundary and vocabulary traffic never crosses tensor-parallel
/// columns or data-parallel replicas. Serving uses the identity map.
pub(crate) struct Link {
    endpoint: P2pEndpoint,
    base: usize,
    stride: usize,
}

impl Link {
    pub(crate) fn new(endpoint: P2pEndpoint, base: usize, stride: usize) -> Self {
        Link {
            endpoint,
            base,
            stride,
        }
    }

    /// Records blocking receives and sends on `tracer`'s comm-wait track.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.endpoint.set_tracer(tracer);
    }

    pub(crate) fn send(&self, stage: usize, tag: u64, t: &Tensor) -> Result<()> {
        self.endpoint
            .send(self.base + stage * self.stride, to_packet(tag, t))
            .map_err(|e| TensorError::InvalidArgument(format!("p2p send failed: {e}")))
    }

    pub(crate) fn recv(&mut self, stage: usize, tag: u64) -> Result<Tensor> {
        let packet = self
            .endpoint
            .recv_tag(self.base + stage * self.stride, tag)
            .map_err(|e| TensorError::InvalidArgument(format!("p2p recv failed: {e}")))?;
        Ok(from_packet(&packet))
    }
}

/// Virtual-stage geometry shared by all pass handlers: how many devices
/// and chunks the schedule spans and how virtual stages map onto
/// `(device, chunk)` pairs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageMap {
    pub(crate) devices: usize,
    pub(crate) chunks: u8,
    pub(crate) placement: ChunkPlacement,
}

impl StageMap {
    /// The stage layout `schedule` places its chunks in.
    pub(crate) fn of(schedule: &Schedule) -> Self {
        StageMap {
            devices: schedule.devices(),
            chunks: schedule.chunks(),
            placement: schedule.placement(),
        }
    }

    /// The index of the last virtual stage (which hosts the output layer
    /// in baseline mode and roots the `C0` broadcast in vocab mode).
    pub(crate) fn last_vs(&self) -> usize {
        self.devices * self.chunks as usize - 1
    }

    /// Maps a virtual stage to its `(device, chunk)` pair.
    pub(crate) fn device_of(&self, vs: usize) -> (usize, u8) {
        placement_device_of(self.placement, self.devices, vs)
    }

    /// Maps a `(device, chunk)` pair back to its virtual stage.
    pub(crate) fn vs_of(&self, device: usize, chunk: u8) -> usize {
        placement_stage_of(self.placement, self.devices, device, chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_disjoint_across_channels() {
        let bases = [TAG_ACT, TAG_GRAD, TAG_C0, TAG_C2, TAG_INPART, TAG_INGRAD];
        for (i, &a) in bases.iter().enumerate() {
            for &b in &bases[i + 1..] {
                // Maximal stage/microbatch payloads never collide across bases.
                assert_ne!(
                    stage_tag(a, (1 << 16) - 1, u32::MAX >> 8),
                    stage_tag(b, 0, 0)
                );
            }
        }
    }

    #[test]
    fn stage_map_round_trips_both_placements() {
        for placement in [ChunkPlacement::VShape, ChunkPlacement::RoundRobin] {
            let map = StageMap {
                devices: 4,
                chunks: 2,
                placement,
            };
            assert_eq!(map.last_vs(), 7);
            for vs in 0..8 {
                let (d, c) = map.device_of(vs);
                assert_eq!(map.vs_of(d, c), vs, "{placement:?} vs {vs}");
            }
        }
    }

    #[test]
    fn packets_round_trip_tensors() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let p = to_packet(7, &t);
        assert_eq!(p.tag, 7);
        let back = from_packet(&p);
        assert_eq!(back.data(), t.data());
        assert_eq!((back.rows(), back.cols()), (2, 3));
    }
}
