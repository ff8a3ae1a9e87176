//! Cycle-accurate per-stack memory controllers: bounded request
//! queues, per-bank state machines and an FR-FCFS scheduler.
//!
//! The closed-form [`crate::stack::MemoryStack`] serves one access per
//! channel behind a single `busy_until` scalar — adequate for isolated
//! requests, blind to everything a real controller does under load:
//! queueing, bank-level parallelism, and row-buffer-aware scheduling.
//! [`MemoryController`] models those explicitly:
//!
//! * each channel owns a **bounded request queue**
//!   ([`ControllerConfig::queue_capacity`]); admission fails when the
//!   queue is full, giving the system driver real backpressure;
//! * each bank is a small **state machine**
//!   (idle / precharging / activating / row-open, see [`BankState`]),
//!   with page-empty distinguished from page-miss — a cold bank pays
//!   activate + CAS only;
//! * a scheduler picks the next request per channel per cycle:
//!   **FR-FCFS** (row hits first, then oldest; the default) or plain
//!   **FCFS** ([`SchedulerPolicy`]);
//! * reads and writes carry their distinct CAS latencies and array
//!   energies from [`StackConfig`].
//!
//! # Timing model
//!
//! An issue at cycle `t` walks the bank through its row transition
//! (`opening_cycles`), then occupies the channel's shared data path for
//! CAS + burst (the **bus chain**: `cas_start = max(row_ready,
//! bus_free)`), completing at `cas_start + cas + burst + tsv_latency`.
//! Banks overlap their precharge/activate phases freely; only the data
//! path serialises.  With a single outstanding request the sum reduces
//! exactly to the closed-form model's `service_cycles` — the
//! equivalence proven in `tests/controller_equivalence.rs`.
//!
//! # Fast-forward contract
//!
//! The controller participates in the engine's universal idle
//! fast-forward (`docs/fast_forward.md`, `docs/memory.md`):
//!
//! * [`MemoryController::next_event_at`] names the earliest cycle at
//!   which a step can complete or issue anything — **exact**, because
//!   completion times are fixed at issue and the earliest possible
//!   issue is bounded by bank-ready times;
//! * [`MemoryController::is_quiescent`] is `true` when no request is
//!   queued or in flight;
//! * [`MemoryController::idle_advance`]`(first, k)` replays `k` skipped
//!   [`MemoryController::step`]s in closed form.  Skipped steps accrue
//!   the occupancy statistics (queue depth and bank-busy integrals) —
//!   u64 sums over piecewise-constant state, so bit-exact — plus the
//!   constant per-cycle DRAM background energy, emitted as one
//!   repeated charge ([`wimnet_energy::ChargeBatch::push_repeated`])
//!   that the meter's exact accumulator lands bit-identically to `k`
//!   per-cycle adds — the `idle_step(k) ≡ k×step` obligation, proven
//!   by proptest replay in `tests/controller_equivalence.rs`.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use wimnet_energy::{ChargeBatch, Energy, EnergyCategory};

use crate::address::{AddressMap, Location};
use crate::stack::{AccessKind, PageOutcome, StackConfig};

/// Which request the per-channel scheduler issues next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// First-ready, first-come-first-served: among requests whose bank
    /// is ready, row hits win, ties broken by age — the standard
    /// row-buffer-locality-exploiting policy.
    FrFcfs,
    /// Strict arrival order: the queue head waits for its bank even
    /// while younger requests could issue (head-of-line blocking).
    Fcfs,
}

/// Controller parameters (timings live in [`StackConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Bounded request-queue depth per channel, in requests.
    pub queue_capacity: usize,
    /// Scheduling policy.
    pub scheduler: SchedulerPolicy,
}

impl ControllerConfig {
    /// The default controller: 16-deep per-channel queues under
    /// FR-FCFS.
    pub fn paper() -> Self {
        ControllerConfig { queue_capacity: 16, scheduler: SchedulerPolicy::FrFcfs }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig::paper()
    }
}

/// One request offered to a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Physical byte address (must decode to this controller's stack).
    pub addr: u64,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Opaque caller tag, returned on the [`Completion`] (the engine
    /// stores the requesting node here).
    pub tag: u64,
}

/// A finished request, popped from [`MemoryController::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The caller's tag from the [`MemRequest`].
    pub tag: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Cycle at which the data is ready at the base logic die.
    pub at: u64,
    /// How the access found the row buffer.
    pub outcome: PageOutcome,
    /// Energy spent inside the stack (array + TSVs).
    pub energy: Energy,
    /// Where the access landed.
    pub location: Location,
}

/// Externally observable bank state at a given cycle (the per-bank
/// state machine: idle / precharging / activating / row-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// No row open, nothing in progress.
    Idle,
    /// Closing the previously open row (page-miss prefix).
    Precharging,
    /// Opening the addressed row.
    Activating,
    /// A row is open (possibly bursting data).
    RowOpen,
}

/// Per-bank service state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Bank {
    /// The open row, if any (set at issue: by the time the access
    /// completes the row is open).
    open_row: Option<u64>,
    /// The bank is occupied by an in-flight access until this cycle.
    ready_at: u64,
    /// End of the precharge phase of the current access (page miss
    /// only; equals the issue cycle otherwise).
    precharge_until: u64,
    /// End of the activate phase of the current access (equals the
    /// issue cycle on a row hit).
    activate_until: u64,
}

impl Bank {
    fn new() -> Self {
        Bank { open_row: None, ready_at: 0, precharge_until: 0, activate_until: 0 }
    }

    /// The state-machine phase at cycle `t`.
    fn state(&self, t: u64) -> BankState {
        if t < self.precharge_until {
            BankState::Precharging
        } else if t < self.activate_until {
            BankState::Activating
        } else if self.open_row.is_some() {
            BankState::RowOpen
        } else {
            BankState::Idle
        }
    }
}

/// A queued request, decoded once at admission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Queued {
    req: MemRequest,
    loc: Location,
    /// Admission order within the controller (scheduler age ties and
    /// deterministic completion ordering).
    seq: u64,
}

/// A request in service; its completion time was fixed at issue.
/// Entries sit in issue order (at most one issue per channel per
/// cycle), which is the completion tie-break order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct InFlight {
    complete_at: u64,
    tag: u64,
    kind: AccessKind,
    outcome: PageOutcome,
    energy: Energy,
    loc: Location,
}

/// One channel: bounded queue, banks, shared data path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Channel {
    queue: VecDeque<Queued>,
    banks: Vec<Bank>,
    /// The shared CAS/burst data path is occupied until this cycle.
    bus_free_at: u64,
    /// In service, completion times fixed; small (≤ banks entries).
    inflight: Vec<InFlight>,
}

/// Raw statistic accumulators (all integer, so closed-form idle
/// replay is bit-exact).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
struct Counters {
    accesses: u64,
    reads: u64,
    writes: u64,
    page_hits: u64,
    page_empties: u64,
    page_misses: u64,
    admit_stall_cycles: u64,
    max_queue_depth: usize,
    /// Σ over stepped cycles of total queued requests.
    queued_cycle_sum: u64,
    /// Σ over stepped cycles of busy banks (any channel).
    busy_bank_cycle_sum: u64,
    /// Cycles with ≥ 1 busy bank.
    active_cycles: u64,
    /// Cycles accounted (stepped + idle-advanced).
    stepped_cycles: u64,
}

/// Per-stack controller statistics snapshot, surfaced through
/// `RunOutcome` (averages are over every accounted cycle since
/// construction, warmup included).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryStackStats {
    /// The stack index.
    pub stack: usize,
    /// Requests issued to banks.
    pub accesses: u64,
    /// Read requests issued.
    pub reads: u64,
    /// Write requests issued.
    pub writes: u64,
    /// Accesses that hit the open row.
    pub page_hits: u64,
    /// Accesses into a bank with no open row (activate only).
    pub page_empties: u64,
    /// Accesses that had to precharge a conflicting row.
    pub page_misses: u64,
    /// Admission attempts bounced off a full channel queue.  The
    /// engine re-offers a blocked request every cycle, so this counts
    /// *request-stall cycles* (how long backpressure held the door),
    /// not distinct rejected requests.
    pub admit_stall_cycles: u64,
    /// Deepest any channel queue got.
    pub max_queue_depth: usize,
    /// Mean queued requests per cycle (all channels summed).
    pub avg_queue_depth: f64,
    /// Mean busy banks over cycles with at least one busy bank — the
    /// bank-level-parallelism figure.
    pub avg_bank_parallelism: f64,
    /// Fraction of cycles with at least one bank busy.
    pub busy_fraction: f64,
}

/// Checkpointed dynamic state of a [`MemoryController`]: queues, bank
/// state machines, in-flight completions and statistic accumulators.
/// The configurations and the background-energy quantum are rebuilt by
/// the constructor path and deliberately excluded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryControllerState {
    channels: Vec<Channel>,
    next_seq: u64,
    counters: Counters,
}

/// The cycle-accurate queued controller of one memory stack.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryController {
    cfg: StackConfig,
    ctrl: ControllerConfig,
    stack_index: usize,
    channels: Vec<Channel>,
    next_seq: u64,
    counters: Counters,
    /// Constant background energy per cycle (refresh/standby draw of
    /// the whole stack), precomputed by the system driver from
    /// [`StackConfig::background_power`] and its clock.  The stepped
    /// path charges it once per [`MemoryController::step`]; the
    /// fast-forwarded path batches it in
    /// [`MemoryController::idle_advance`].
    background_energy: Energy,
    /// Requests queued or in service: +1 at admission, −n where `step`
    /// drains completions.  Derived (recounted on restore, never
    /// serialised); with `busy_until` it lets a drained step return in
    /// O(1).
    pending: usize,
    /// The largest bank `ready_at` ever set — monotone, raised at issue.
    /// No bank is busy at any cycle `>= busy_until`.
    busy_until: u64,
}

impl MemoryController {
    /// Creates the controller for stack `stack_index`.
    ///
    /// # Panics
    ///
    /// Panics if `ctrl.queue_capacity` is zero.
    pub fn new(stack_index: usize, cfg: StackConfig, ctrl: ControllerConfig) -> Self {
        assert!(ctrl.queue_capacity > 0, "queue capacity must be positive");
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                queue: VecDeque::with_capacity(ctrl.queue_capacity),
                banks: (0..cfg.banks).map(|_| Bank::new()).collect(),
                bus_free_at: 0,
                inflight: Vec::with_capacity(cfg.banks),
            })
            .collect();
        MemoryController {
            cfg,
            ctrl,
            stack_index,
            channels,
            next_seq: 0,
            counters: Counters::default(),
            background_energy: Energy::ZERO,
            pending: 0,
            busy_until: 0,
        }
    }

    /// Sets the constant background energy charged per accounted cycle
    /// (`DramBackground`).  The driver derives it once from
    /// [`StackConfig::background_power`] at the system clock so the
    /// stepped and fast-forwarded paths charge the bit-identical
    /// quantum.
    pub fn set_background_energy(&mut self, per_cycle: Energy) {
        self.background_energy = per_cycle;
    }

    /// The background energy charged per accounted cycle.
    pub fn background_energy(&self) -> Energy {
        self.background_energy
    }

    /// The timing configuration.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// Offers `req` to its channel's queue.  Returns the request back
    /// when the queue is full (the caller keeps it staged and retries;
    /// the rejection is counted).
    ///
    /// # Panics
    ///
    /// Panics if `map` decodes the address to a different stack.
    pub fn enqueue(&mut self, req: MemRequest, map: &AddressMap) -> Result<(), MemRequest> {
        let loc = map.decode(req.addr);
        assert_eq!(
            loc.stack, self.stack_index,
            "request for stack {} routed to controller {}",
            loc.stack, self.stack_index
        );
        let ch = &mut self.channels[loc.channel];
        if ch.queue.len() >= self.ctrl.queue_capacity {
            self.counters.admit_stall_cycles += 1;
            return Err(req);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        ch.queue.push_back(Queued { req, loc, seq });
        self.pending += 1;
        self.counters.max_queue_depth = self.counters.max_queue_depth.max(ch.queue.len());
        Ok(())
    }

    /// One controller cycle at time `now`: pop due completions (into
    /// `out`, appended in deterministic `(channel, complete_at, seq)`
    /// order), issue at most one request per channel, accrue occupancy
    /// statistics.  Callers step with strictly increasing `now`, except
    /// across gaps sanctioned by [`MemoryController::next_event_at`]
    /// and replayed with [`MemoryController::idle_advance`].
    pub fn step(&mut self, now: u64, out: &mut Vec<Completion>) {
        // Drained fast path: with nothing queued or in service and every
        // bank timer run out, the body below completes nothing, picks
        // from empty queues and counts zero queued requests and zero
        // busy banks — it would add 1 to `stepped_cycles` and nothing
        // else.
        if self.pending == 0 && now >= self.busy_until {
            self.counters.stepped_cycles += 1;
            return;
        }
        let mut busy_banks = 0u64;
        let mut queued = 0u64;
        for ch in &mut self.channels {
            // Completions due this cycle, pushed straight into `out`
            // (no per-cycle allocation) and ordered by completion
            // cycle; the stable sort breaks the rare tie (possible
            // only with a non-zero TSV layer latency) by issue order,
            // which is itself deterministic.
            if !ch.inflight.is_empty() {
                let start = out.len();
                ch.inflight.retain(|f| {
                    if f.complete_at <= now {
                        out.push(Completion {
                            tag: f.tag,
                            kind: f.kind,
                            at: f.complete_at,
                            outcome: f.outcome,
                            energy: f.energy,
                            location: f.loc,
                        });
                        false
                    } else {
                        true
                    }
                });
                out[start..].sort_by_key(|c| c.at);
                self.pending -= out.len() - start;
            }
            // Issue at most one request.
            if let Some(idx) = pick(&ch.queue, &ch.banks, self.ctrl.scheduler, now) {
                let q = ch.queue.remove(idx).expect("picked index is in the queue");
                let bank = &mut ch.banks[q.loc.bank];
                let outcome = match bank.open_row {
                    Some(row) if row == q.loc.row => PageOutcome::Hit,
                    Some(_) => PageOutcome::Miss,
                    None => PageOutcome::Empty,
                };
                let precharge_until = now
                    + if outcome == PageOutcome::Miss { self.cfg.precharge_cycles } else { 0 };
                let row_ready = now + self.cfg.opening_cycles(outcome);
                let cas_start = row_ready.max(ch.bus_free_at);
                let data_done =
                    cas_start + self.cfg.cas_cycles(q.req.kind) + self.cfg.burst_cycles;
                let complete_at = data_done + self.cfg.tsv.latency(q.loc.layer);
                ch.bus_free_at = data_done;
                bank.open_row = Some(q.loc.row);
                bank.ready_at = complete_at;
                self.busy_until = self.busy_until.max(complete_at);
                bank.precharge_until = precharge_until;
                bank.activate_until = row_ready;
                let bits = u64::from(q.req.bytes) * 8;
                ch.inflight.push(InFlight {
                    complete_at,
                    tag: q.req.tag,
                    kind: q.req.kind,
                    outcome,
                    energy: self.cfg.access_energy(bits, q.req.kind, q.loc.layer),
                    loc: q.loc,
                });
                self.counters.accesses += 1;
                match q.req.kind {
                    AccessKind::Read => self.counters.reads += 1,
                    AccessKind::Write => self.counters.writes += 1,
                }
                match outcome {
                    PageOutcome::Hit => self.counters.page_hits += 1,
                    PageOutcome::Empty => self.counters.page_empties += 1,
                    PageOutcome::Miss => self.counters.page_misses += 1,
                }
            }
            // Occupancy after this cycle's activity: an access issued at
            // `now` occupies its bank this cycle.
            queued += ch.queue.len() as u64;
            busy_banks += ch.banks.iter().filter(|b| b.ready_at > now).count() as u64;
        }
        self.counters.queued_cycle_sum += queued;
        self.counters.busy_bank_cycle_sum += busy_banks;
        self.counters.active_cycles += u64::from(busy_banks > 0);
        self.counters.stepped_cycles += 1;
    }

    /// `true` when nothing is queued or in flight — the controller's
    /// quiescence gate in the fast-forward contract.  Bank timers may
    /// still run out their tail (e.g. a just-completed burst); those
    /// affect only the occupancy integrals, which
    /// [`MemoryController::idle_advance`] replays exactly.
    pub fn is_quiescent(&self) -> bool {
        self.pending == 0
    }

    /// The earliest cycle strictly after `now` (the last stepped cycle)
    /// at which [`MemoryController::step`] can complete or issue
    /// anything, or `u64::MAX` when the controller is quiescent.
    ///
    /// Exact for completions (times fixed at issue) and sound for
    /// issues: a request can issue no earlier than its bank's
    /// `ready_at` (under FCFS, no earlier than the *head's* bank), and
    /// nothing else unblocks a queue without an external enqueue —
    /// which the engine only performs while the network is busy, i.e.
    /// never inside a sanctioned skip.
    pub fn next_event_at(&self, now: u64) -> u64 {
        let floor = now + 1;
        let mut at = u64::MAX;
        for ch in &self.channels {
            for f in &ch.inflight {
                at = at.min(f.complete_at.max(floor));
            }
            match self.ctrl.scheduler {
                SchedulerPolicy::Fcfs => {
                    if let Some(head) = ch.queue.front() {
                        at = at.min(ch.banks[head.loc.bank].ready_at.max(floor));
                    }
                }
                SchedulerPolicy::FrFcfs => {
                    for q in &ch.queue {
                        at = at.min(ch.banks[q.loc.bank].ready_at.max(floor));
                    }
                }
            }
        }
        at
    }

    /// Replays `k` skipped steps covering cycles `first .. first + k`
    /// in closed form.  The caller guarantees (via
    /// [`MemoryController::next_event_at`]) that none of those steps
    /// would complete or issue anything, so each would only accrue the
    /// occupancy statistics over piecewise-constant state:
    ///
    /// * queue depths cannot change (no issues, and the engine never
    ///   enqueues while skipping), so the queued integral is
    ///   `k × current depth` exactly;
    /// * every busy interval `[first, ready_at)` is a prefix of the
    ///   window, so per-bank busy cycles are
    ///   `min(ready_at − first, k)` and the any-bank-busy count is the
    ///   maximum prefix — all u64 arithmetic, bit-identical to `k`
    ///   individual steps (proptest-proven in
    ///   `tests/controller_equivalence.rs`).
    ///
    /// DRAM background power joins the closed form: the `k` per-cycle
    /// `DramBackground` quanta the skipped steps would have charged
    /// land in `charges` as one repeated run — exact under the meter's
    /// superaccumulator, so stepping and skipping stay bit-identical.
    pub fn idle_advance(&mut self, first: u64, k: u64, charges: &mut ChargeBatch) {
        if k == 0 {
            return;
        }
        if self.background_energy > Energy::ZERO {
            charges.push_repeated(EnergyCategory::DramBackground, self.background_energy, k);
        }
        let mut queued = 0u64;
        let mut busy_sum = 0u64;
        let mut busy_max = 0u64;
        for ch in &self.channels {
            debug_assert!(
                ch.inflight.iter().all(|f| f.complete_at >= first + k),
                "idle_advance skipped over a completion"
            );
            queued += ch.queue.len() as u64;
            for b in &ch.banks {
                let busy = b.ready_at.saturating_sub(first).min(k);
                busy_sum += busy;
                busy_max = busy_max.max(busy);
            }
        }
        self.counters.queued_cycle_sum += k * queued;
        self.counters.busy_bank_cycle_sum += busy_sum;
        self.counters.active_cycles += busy_max;
        self.counters.stepped_cycles += k;
    }

    /// The state-machine phase of `(channel, bank)` at cycle `t`.
    pub fn bank_state(&self, channel: usize, bank: usize, t: u64) -> BankState {
        self.channels[channel].banks[bank].state(t)
    }

    /// Requests currently queued (all channels).
    pub fn queued_requests(&self) -> usize {
        self.channels.iter().map(|ch| ch.queue.len()).sum()
    }

    /// Requests currently in service (all channels).
    pub fn inflight_requests(&self) -> usize {
        self.channels.iter().map(|ch| ch.inflight.len()).sum()
    }

    /// Captures the controller's complete dynamic state for
    /// checkpointing (see `wimnet_core::checkpoint`).
    pub fn state(&self) -> MemoryControllerState {
        MemoryControllerState {
            channels: self.channels.clone(),
            next_seq: self.next_seq,
            counters: self.counters,
        }
    }

    /// Validates a snapshot against this controller's configuration.
    /// Snapshot bytes come from disk, and [`MemoryController::step`]
    /// trusts every condition checked here: the scheduler indexes
    /// `banks[loc.bank]` for each queued request, admission compares
    /// queue lengths with the configured capacity, and completions
    /// report `loc` as where the access landed.
    ///
    /// # Errors
    ///
    /// [`serde::Error`] naming the first violated condition.
    pub fn check_state(&self, s: &MemoryControllerState) -> Result<(), serde::Error> {
        let bad = |what: String| {
            Err(serde::Error::msg(format!(
                "snapshot of memory controller {} malformed: {what}",
                self.stack_index
            )))
        };
        if s.channels.len() != self.cfg.channels {
            return bad(format!(
                "channel count ({} in snapshot, {} here)",
                s.channels.len(),
                self.cfg.channels
            ));
        }
        for (ci, ch) in s.channels.iter().enumerate() {
            if ch.banks.len() != self.cfg.banks {
                return bad(format!(
                    "channel {ci} bank count ({} in snapshot, {} here)",
                    ch.banks.len(),
                    self.cfg.banks
                ));
            }
            if ch.queue.len() > self.ctrl.queue_capacity {
                return bad(format!("channel {ci} queue longer than its capacity"));
            }
            let locations =
                ch.queue.iter().map(|q| &q.loc).chain(ch.inflight.iter().map(|f| &f.loc));
            for loc in locations {
                if loc.stack != self.stack_index
                    || loc.channel != ci
                    || loc.bank >= self.cfg.banks
                {
                    return bad(format!("channel {ci} holds a request located at {loc:?}"));
                }
            }
        }
        Ok(())
    }

    /// Restores a [`MemoryControllerState`] into this controller, which
    /// must have been built with the same configurations the snapshot
    /// was taken from.  The derived `pending` / `busy_until` pair is
    /// recomputed from the restored queues and banks.
    ///
    /// # Errors
    ///
    /// Whatever [`MemoryController::check_state`] rejects; the
    /// controller is untouched then.
    pub fn restore_state(&mut self, s: &MemoryControllerState) -> Result<(), serde::Error> {
        self.check_state(s)?;
        self.channels.clone_from(&s.channels);
        self.next_seq = s.next_seq;
        self.counters = s.counters;
        self.pending = self.queued_requests() + self.inflight_requests();
        self.busy_until = self
            .channels
            .iter()
            .flat_map(|ch| &ch.banks)
            .map(|b| b.ready_at)
            .max()
            .unwrap_or(0);
        Ok(())
    }

    /// Exact queued-requests-over-cycles integral (the numerator of
    /// [`MemoryStackStats::avg_queue_depth`], exposed for telemetry so
    /// the queue-depth integral survives without float round-trips).
    pub fn queued_cycle_sum(&self) -> u64 {
        self.counters.queued_cycle_sum
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MemoryStackStats {
        let c = &self.counters;
        let frac = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        MemoryStackStats {
            stack: self.stack_index,
            accesses: c.accesses,
            reads: c.reads,
            writes: c.writes,
            page_hits: c.page_hits,
            page_empties: c.page_empties,
            page_misses: c.page_misses,
            admit_stall_cycles: c.admit_stall_cycles,
            max_queue_depth: c.max_queue_depth,
            avg_queue_depth: frac(c.queued_cycle_sum, c.stepped_cycles),
            avg_bank_parallelism: frac(c.busy_bank_cycle_sum, c.active_cycles),
            busy_fraction: frac(c.active_cycles, c.stepped_cycles),
        }
    }
}

/// The scheduler: the queue index to issue at cycle `now`, if any.
fn pick(
    queue: &VecDeque<Queued>,
    banks: &[Bank],
    policy: SchedulerPolicy,
    now: u64,
) -> Option<usize> {
    match policy {
        SchedulerPolicy::Fcfs => {
            let head = queue.front()?;
            (banks[head.loc.bank].ready_at <= now).then_some(0)
        }
        SchedulerPolicy::FrFcfs => {
            // First ready row hit in age order, else oldest ready.
            let ready = |q: &Queued| banks[q.loc.bank].ready_at <= now;
            queue
                .iter()
                .position(|q| ready(q) && banks[q.loc.bank].open_row == Some(q.loc.row))
                .or_else(|| queue.iter().position(ready))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(policy: SchedulerPolicy) -> (MemoryController, AddressMap) {
        let ctrl = ControllerConfig { queue_capacity: 4, scheduler: policy };
        (
            MemoryController::new(0, StackConfig::paper(), ctrl),
            AddressMap::paper(1),
        )
    }

    /// Stack-local block `b` as a byte address for a one-stack map.
    fn addr(block: u64) -> u64 {
        block * 64
    }

    fn req(block: u64, kind: AccessKind, tag: u64) -> MemRequest {
        MemRequest { addr: addr(block), bytes: 64, kind, tag }
    }

    fn run_until_drained(
        mc: &mut MemoryController,
        mut now: u64,
        limit: u64,
    ) -> Vec<Completion> {
        let mut all = Vec::new();
        while !mc.is_quiescent() {
            now += 1;
            assert!(now < limit, "controller failed to drain");
            mc.step(now, &mut all);
        }
        all
    }

    #[test]
    fn single_request_matches_the_closed_form_service_time() {
        let (mut mc, map) = controller(SchedulerPolicy::FrFcfs);
        mc.enqueue(req(0, AccessKind::Read, 7), &map).unwrap();
        let mut out = Vec::new();
        mc.step(0, &mut out);
        assert!(out.is_empty(), "service takes time");
        let done = run_until_drained(&mut mc, 0, 100);
        assert_eq!(done.len(), 1);
        let cfg = StackConfig::paper();
        assert_eq!(
            done[0].at,
            cfg.service_cycles(AccessKind::Read, PageOutcome::Empty),
            "cold access = activate + CAS + burst from the issue cycle"
        );
        assert_eq!(done[0].tag, 7);
        assert_eq!(done[0].outcome, PageOutcome::Empty);
    }

    #[test]
    fn queue_capacity_is_enforced_and_rejections_counted() {
        let (mut mc, map) = controller(SchedulerPolicy::FrFcfs);
        // Same channel (stride a full channel wheel: 4 blocks).
        for i in 0..4 {
            mc.enqueue(req(i * 4, AccessKind::Read, i), &map).unwrap();
        }
        let r = req(16, AccessKind::Read, 99);
        assert_eq!(mc.enqueue(r, &map), Err(r));
        assert_eq!(mc.stats().admit_stall_cycles, 1);
        assert_eq!(mc.stats().max_queue_depth, 4);
    }

    #[test]
    fn frfcfs_prefers_row_hits_over_older_misses() {
        let (mut mc, map) = controller(SchedulerPolicy::FrFcfs);
        let mut out = Vec::new();
        // Open a row in bank 0 (blocks 0..32 of channel 0 share row 0).
        mc.enqueue(req(0, AccessKind::Read, 0), &map).unwrap();
        mc.step(0, &mut out);
        let first = run_until_drained(&mut mc, 0, 100);
        let t0 = first[0].at;
        // Now queue: a conflicting row in bank 0 (older) and a hit on
        // the open row (younger).  FR-FCFS issues the hit first.
        let bank_wheel = 4 * 32 * 8; // blocks per bank wheel on ch 0
        mc.enqueue(req(bank_wheel, AccessKind::Read, 1), &map).unwrap(); // row conflict
        mc.enqueue(req(4, AccessKind::Read, 2), &map).unwrap(); // same row 0 hit
        let done = run_until_drained(&mut mc, t0, 1_000);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].tag, 2, "the row hit overtakes the older miss");
        assert_eq!(done[0].outcome, PageOutcome::Hit);
        assert_eq!(done[1].tag, 1);
        assert_eq!(done[1].outcome, PageOutcome::Miss);
    }

    #[test]
    fn fcfs_preserves_arrival_order_even_when_blocked() {
        let (mut mc, map) = controller(SchedulerPolicy::Fcfs);
        let bank_wheel = 4 * 32 * 8;
        mc.enqueue(req(0, AccessKind::Read, 0), &map).unwrap();
        mc.enqueue(req(bank_wheel, AccessKind::Read, 1), &map).unwrap();
        mc.enqueue(req(4, AccessKind::Read, 2), &map).unwrap();
        let done = run_until_drained(&mut mc, 0, 1_000);
        let tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1, 2], "FCFS never reorders");
    }

    #[test]
    fn independent_banks_overlap_their_activations() {
        let (mut mc, map) = controller(SchedulerPolicy::FrFcfs);
        // Two different banks of channel 0: blocks 0 and 128
        // (4 ch × 32 cols rotate the bank every 128 channel-0 blocks).
        let bank_stride = 4 * 32;
        mc.enqueue(req(0, AccessKind::Read, 0), &map).unwrap();
        mc.enqueue(req(bank_stride, AccessKind::Read, 1), &map).unwrap();
        let done = run_until_drained(&mut mc, 0, 1_000);
        assert_ne!(done[0].location.bank, done[1].location.bank);
        let cfg = StackConfig::paper();
        let serial = 2 * cfg.service_cycles(AccessKind::Read, PageOutcome::Empty);
        assert!(
            done[1].at < serial,
            "bank-parallel activations beat serial service: {} vs {serial}",
            done[1].at
        );
        let stats = mc.stats();
        assert!(
            stats.avg_bank_parallelism > 1.0,
            "two banks were busy at once: {stats:?}"
        );
    }

    #[test]
    fn bank_state_machine_walks_precharge_activate_open() {
        let (mut mc, map) = controller(SchedulerPolicy::FrFcfs);
        let mut out = Vec::new();
        // Open row 0 of bank 0, drain, then issue a conflicting row.
        mc.enqueue(req(0, AccessKind::Read, 0), &map).unwrap();
        mc.step(0, &mut out);
        let t0 = run_until_drained(&mut mc, 0, 100)[0].at;
        assert_eq!(mc.bank_state(0, 0, t0), BankState::RowOpen);
        let bank_wheel = 4 * 32 * 8;
        mc.enqueue(req(bank_wheel, AccessKind::Read, 1), &map).unwrap();
        out.clear();
        mc.step(t0 + 1, &mut out); // issues the miss at t0 + 1
        let cfg = StackConfig::paper();
        assert_eq!(mc.bank_state(0, 0, t0 + 1), BankState::Precharging);
        assert_eq!(
            mc.bank_state(0, 0, t0 + 1 + cfg.precharge_cycles),
            BankState::Activating
        );
        assert_eq!(
            mc.bank_state(0, 0, t0 + 1 + cfg.precharge_cycles + cfg.activate_cycles),
            BankState::RowOpen
        );
        // A never-touched bank is idle.
        assert_eq!(mc.bank_state(0, 7, t0), BankState::Idle);
    }

    #[test]
    fn next_event_at_is_exact_on_a_live_controller() {
        let (mut mc, map) = controller(SchedulerPolicy::FrFcfs);
        mc.enqueue(req(0, AccessKind::Write, 0), &map).unwrap();
        let mut out = Vec::new();
        mc.step(0, &mut out); // issues at 0
        let e = mc.next_event_at(0);
        // Nothing happens strictly before `e`…
        let mut probe = mc.clone();
        for t in 1..e {
            probe.step(t, &mut out);
            assert!(out.is_empty(), "no completions before the promised cycle");
            assert_eq!(probe.queued_requests(), mc.queued_requests());
        }
        // …and the completion fires exactly at `e`.
        probe.step(e, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at, e);
        assert_eq!(mc.next_event_at(0), e, "query is state-free");
        assert!(probe.is_quiescent());
        assert_eq!(probe.next_event_at(e), u64::MAX);
    }

    #[test]
    fn quiescent_controller_reports_never() {
        let (mc, _) = controller(SchedulerPolicy::Fcfs);
        assert!(mc.is_quiescent());
        assert_eq!(mc.next_event_at(123), u64::MAX);
        assert_eq!(mc.stats().accesses, 0);
    }

    #[test]
    fn write_and_read_cas_differ_in_completion_time() {
        let (mut mc_r, map) = controller(SchedulerPolicy::FrFcfs);
        let (mut mc_w, _) = controller(SchedulerPolicy::FrFcfs);
        mc_r.enqueue(req(0, AccessKind::Read, 0), &map).unwrap();
        mc_w.enqueue(req(0, AccessKind::Write, 0), &map).unwrap();
        let r = run_until_drained(&mut mc_r, 0, 100);
        let w = run_until_drained(&mut mc_w, 0, 100);
        let cfg = StackConfig::paper();
        assert_eq!(r[0].at - w[0].at, cfg.read_cas_cycles - cfg.write_cas_cycles);
        assert_eq!(mc_r.stats().reads, 1);
        assert_eq!(mc_w.stats().writes, 1);
    }
}
