//! The two communication channels between the architectural simulator and
//! MimicOS.
//!
//! In the paper, the simulator and MimicOS run as separate processes and
//! exchange messages through POSIX shared memory, synchronized by magic
//! instructions. In this Rust reproduction both live in one process, but the
//! *protocol* is preserved: the simulator posts a [`KernelRequest`] on the
//! functional channel, MimicOS processes it and posts a [`KernelResponse`]
//! plus an instruction stream on the instruction-stream channel, and the
//! simulator consumes both before resuming the application. Protocol
//! violations (reading a response before posting a request, dropping an
//! unconsumed stream) are detected and reported, which keeps the integration
//! honest even without real IPC.

use mimic_os::{InvalidationVictim, KernelInstructionStream, Mapping, ProcessId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use vm_types::{Counter, VirtAddr, VmError, VmResult};

/// A functional request from the simulator to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KernelRequest {
    /// The MMU could not translate `vaddr`: handle the page fault.
    PageFault {
        /// Faulting process.
        pid: ProcessId,
        /// Faulting virtual address.
        vaddr: VirtAddr,
        /// Whether the faulting access was a write.
        is_write: bool,
    },
    /// The application requested an anonymous mapping.
    MmapAnonymous {
        /// Requesting process.
        pid: ProcessId,
        /// Desired start address.
        start: VirtAddr,
        /// Length in bytes.
        len: u64,
    },
    /// Periodic housekeeping tick (khugepaged scan, pool refill).
    BackgroundTick {
        /// Process whose address space khugepaged scans.
        pid: ProcessId,
    },
}

/// A functional response from the kernel to the simulator.
///
/// (Only `Serialize` is derived: the embedded [`VmError`] borrows a
/// `&'static str` and therefore cannot be deserialized from arbitrary
/// input.)
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum KernelResponse {
    /// A page fault was handled; the simulator should install the mapping
    /// and restart the page-table walk.
    FaultHandled {
        /// The established mapping.
        mapping: Mapping,
        /// Mappings created as side effects (promotions, eager ranges).
        additional: Vec<Mapping>,
        /// Storage-device latency incurred, in nanoseconds.
        device_latency_ns: f64,
    },
    /// The fault could not be handled (e.g. a segmentation fault).
    FaultFailed {
        /// Why the fault failed.
        error: VmError,
    },
    /// An mmap request completed.
    MmapDone,
    /// A background tick completed.
    TickDone,
}

/// The functional channel: request/response queues with protocol checking.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FunctionalChannel {
    requests: VecDeque<KernelRequest>,
    responses: VecDeque<KernelResponse>,
    /// Requests posted by the simulator.
    pub requests_sent: Counter,
    /// Responses posted by the kernel.
    pub responses_sent: Counter,
}

impl FunctionalChannel {
    /// Creates an empty channel.
    pub fn new() -> Self {
        FunctionalChannel::default()
    }

    /// Simulator side: posts a request to the kernel.
    pub fn post_request(&mut self, request: KernelRequest) {
        self.requests.push_back(request);
        self.requests_sent.inc();
    }

    /// Kernel side: takes the next pending request.
    pub fn take_request(&mut self) -> Option<KernelRequest> {
        self.requests.pop_front()
    }

    /// Kernel side: posts a response.
    pub fn post_response(&mut self, response: KernelResponse) {
        self.responses.push_back(response);
        self.responses_sent.inc();
    }

    /// Simulator side: takes the response to its earlier request.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::ChannelProtocol`] if no response is pending, which
    /// indicates a protocol violation (the kernel never answered).
    pub fn take_response(&mut self) -> VmResult<KernelResponse> {
        self.responses
            .pop_front()
            .ok_or_else(|| VmError::ChannelProtocol {
                reason: "response read before the kernel posted one".to_string(),
            })
    }

    /// Number of requests the kernel has not yet consumed.
    pub fn pending_requests(&self) -> usize {
        self.requests.len()
    }
}

/// The instruction-stream channel: kernel instruction streams queued for
/// injection into the core model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InstructionStreamChannel {
    streams: VecDeque<KernelInstructionStream>,
    /// Streams injected so far.
    pub streams_sent: Counter,
    /// Total kernel instructions carried by the channel.
    pub instructions_sent: Counter,
}

impl InstructionStreamChannel {
    /// Creates an empty channel.
    pub fn new() -> Self {
        InstructionStreamChannel::default()
    }

    /// Kernel side: sends an instruction stream for injection.
    pub fn send(&mut self, stream: KernelInstructionStream) {
        self.instructions_sent.add(stream.instruction_count());
        self.streams_sent.inc();
        self.streams.push_back(stream);
    }

    /// Simulator side: takes the next stream to inject, if any.
    pub fn receive(&mut self) -> Option<KernelInstructionStream> {
        self.streams.pop_front()
    }

    /// Number of streams waiting for injection.
    pub fn pending(&self) -> usize {
        self.streams.len()
    }
}

/// A TLB-shootdown inter-processor interrupt: the initiating core asks a
/// remote core to invalidate its local translations for the victim pages.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShootdownIpi {
    /// The core that initiated the shootdown (runs the reclaim pass).
    pub from_core: usize,
    /// The pages every remote core must stop translating.
    pub victims: Vec<InvalidationVictim>,
}

/// The inter-core message channel carrying shootdown IPIs and their acks.
///
/// Mirrors the functional channel's honesty checks: an initiator that
/// collects acks before every remote core has posted one is a protocol
/// violation (a real kernel spinning in `smp_call_function_many` would
/// deadlock or, worse, let a stale translation survive).
///
/// Delivery is immediate: an IPI is visible to the remote core within
/// the initiating fault, never deferred. Parallel host-thread stepping
/// keeps this contract by construction — the epoch planner only runs
/// epochs when no reclaim (and hence no shootdown) can fire, so every
/// IPI is sent and serviced on the serial path in core-index order.
#[derive(Debug, Clone, Serialize)]
pub struct InterCoreChannel {
    /// One IPI inbox per core.
    inboxes: Vec<VecDeque<ShootdownIpi>>,
    /// Acks posted by remote cores, in completion order.
    acks: VecDeque<usize>,
    /// IPIs delivered to remote inboxes.
    pub ipis_sent: Counter,
    /// Acks posted by remote cores.
    pub acks_sent: Counter,
}

impl InterCoreChannel {
    /// Creates a channel connecting `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        InterCoreChannel {
            inboxes: (0..num_cores.max(1)).map(|_| VecDeque::new()).collect(),
            acks: VecDeque::new(),
            ipis_sent: Counter::new(),
            acks_sent: Counter::new(),
        }
    }

    /// Number of cores the channel connects.
    pub fn num_cores(&self) -> usize {
        self.inboxes.len()
    }

    /// Initiator side: broadcasts a shootdown IPI to every core except
    /// `from`. Returns the number of remote cores that must ack.
    pub fn broadcast(&mut self, from: usize, victims: &[InvalidationVictim]) -> usize {
        let mut remotes = 0;
        for core in 0..self.inboxes.len() {
            if core == from {
                continue;
            }
            self.inboxes[core].push_back(ShootdownIpi {
                from_core: from,
                victims: victims.to_vec(),
            });
            self.ipis_sent.inc();
            remotes += 1;
        }
        remotes
    }

    /// Remote side: takes the next IPI pending for `core`, if any.
    pub fn take_for(&mut self, core: usize) -> Option<ShootdownIpi> {
        self.inboxes[core].pop_front()
    }

    /// Remote side: acknowledges a processed IPI.
    pub fn post_ack(&mut self, core: usize) {
        self.acks.push_back(core);
        self.acks_sent.inc();
    }

    /// Initiator side: collects exactly `expected` acks, completing the
    /// shootdown round.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::ChannelProtocol`] when fewer acks are pending —
    /// a remote core dropped the IPI without tearing its state down.
    pub fn take_acks(&mut self, expected: usize) -> VmResult<()> {
        if self.acks.len() < expected {
            return Err(VmError::ChannelProtocol {
                reason: format!(
                    "shootdown initiator expected {expected} acks, found {}",
                    self.acks.len()
                ),
            });
        }
        for _ in 0..expected {
            self.acks.pop_front();
        }
        Ok(())
    }

    /// IPIs not yet consumed by `core`.
    pub fn pending_for(&self, core: usize) -> usize {
        self.inboxes[core].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimic_os::{KernelRoutine, ProcessId};

    #[test]
    fn request_response_roundtrip() {
        let mut ch = FunctionalChannel::new();
        ch.post_request(KernelRequest::PageFault {
            pid: ProcessId(0),
            vaddr: VirtAddr::new(0x1000),
            is_write: false,
        });
        assert_eq!(ch.pending_requests(), 1);
        let req = ch.take_request().unwrap();
        assert!(matches!(req, KernelRequest::PageFault { .. }));
        ch.post_response(KernelResponse::MmapDone);
        assert_eq!(ch.take_response().unwrap(), KernelResponse::MmapDone);
        assert_eq!(ch.requests_sent.get(), 1);
        assert_eq!(ch.responses_sent.get(), 1);
    }

    #[test]
    fn missing_response_is_a_protocol_violation() {
        let mut ch = FunctionalChannel::new();
        assert!(matches!(
            ch.take_response(),
            Err(VmError::ChannelProtocol { .. })
        ));
    }

    #[test]
    fn instruction_stream_channel_preserves_order_and_counts() {
        let mut ch = InstructionStreamChannel::new();
        let mut a = KernelInstructionStream::new(KernelRoutine::PageFaultHandler);
        a.compute(10);
        let mut b = KernelInstructionStream::new(KernelRoutine::Khugepaged);
        b.compute(20);
        ch.send(a.clone());
        ch.send(b.clone());
        assert_eq!(ch.pending(), 2);
        assert_eq!(ch.instructions_sent.get(), 30);
        assert_eq!(ch.receive().unwrap(), a);
        assert_eq!(ch.receive().unwrap(), b);
        assert!(ch.receive().is_none());
    }

    fn victim(vaddr: u64) -> InvalidationVictim {
        InvalidationVictim {
            pid: ProcessId(0),
            vaddr: VirtAddr::new(vaddr),
            page_size: vm_types::PageSize::Size4K,
        }
    }

    #[test]
    fn shootdown_broadcast_reaches_every_remote_core() {
        let mut ch = InterCoreChannel::new(4);
        let remotes = ch.broadcast(1, &[victim(0x1000)]);
        assert_eq!(remotes, 3);
        assert_eq!(ch.pending_for(1), 0, "the initiator never IPIs itself");
        for core in [0, 2, 3] {
            let ipi = ch.take_for(core).expect("remote core has an IPI");
            assert_eq!(ipi.from_core, 1);
            assert_eq!(ipi.victims.len(), 1);
            ch.post_ack(core);
        }
        ch.take_acks(remotes).expect("all remotes acked");
        assert_eq!(ch.ipis_sent.get(), 3);
        assert_eq!(ch.acks_sent.get(), 3);
    }

    #[test]
    fn missing_ack_is_a_protocol_violation() {
        let mut ch = InterCoreChannel::new(2);
        let remotes = ch.broadcast(0, &[victim(0x2000)]);
        assert_eq!(remotes, 1);
        // Remote takes the IPI but never acks: collecting must fail rather
        // than silently complete the shootdown.
        let _ = ch.take_for(1);
        assert!(matches!(
            ch.take_acks(remotes),
            Err(VmError::ChannelProtocol { .. })
        ));
    }

    #[test]
    fn single_core_broadcast_has_no_remotes() {
        let mut ch = InterCoreChannel::new(1);
        assert_eq!(ch.broadcast(0, &[victim(0x3000)]), 0);
        assert!(ch.take_acks(0).is_ok());
        assert_eq!(ch.ipis_sent.get(), 0);
    }
}
