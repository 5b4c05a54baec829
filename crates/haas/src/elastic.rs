//! Elastic multi-tenant HaaS scheduling over partial-reconfiguration
//! regions.
//!
//! This is the one FPGA pool. Carved into PR regions
//! ([`fpga::STANDARD_CARVE_ALMS`]), it is elastic: tenants lease individual regions,
//! higher classes preempt lower ones with a bounded eviction latency, a
//! periodic defragmentation pass repacks leases best-fit-decreasing, and
//! spot capacity is reclaimed when the free pool drains. With each board
//! one whole-board region ([`whole_board_pool`](crate::whole_board_pool))
//! it is the paper's Resource Manager, leasing boards to Service
//! Managers. [`ElasticScheduler`] is that control plane, driven by a
//! time-ordered [`LeaseEvent`] trace and emitting [`Decision`]s whose
//! running FNV-1a fingerprint makes whole runs byte-comparable. It keeps
//! only the latest call's decisions and a count: a whole run's log would
//! grow with the trace.
//!
//! Every rule below is deliberately a *total, deterministic* function of
//! the event history — the pure reference scheduler in `simcheck`
//! re-implements the same contract and is compared lock-step, decision
//! by decision:
//!
//! * **placement** is best-fit: the smallest free region that holds the
//!   request, ties broken by board registration order then region index;
//! * **preemption**: a request that does not fit may evict the
//!   lowest-class preemptible lease (spot before standard; guaranteed is
//!   never evicted) in the smallest sufficient region, ties by lease id;
//!   the region is reserved and the eviction completes one
//!   `eviction_window` later;
//! * **defragmentation** runs at every `defrag_period` boundary and
//!   repacks live leases best-fit-decreasing, migrating only leases
//!   whose assignment changes (in lease-id order);
//! * **spot reclamation** evicts spot leases (largest region first) when
//!   the free share of the pool falls below `spot_reserve_permille`.
//!
//! No rule walks the pool to decide. Free regions, evictions in flight,
//! reservations, preemption victims and the wait queue each live in an
//! ordered index whose key order *is* the rule's tie-break, keyed by board
//! registration index, and running counters replace the sums. Everything
//! looked up by an id — a request's state, a lease, a board's registration
//! index — sits in a table with O(1) lookup instead, because no rule
//! depends on its order. Cost per event stays flat from tens of boards to
//! the paper's 5,760 (DESIGN.md, "Scheduler indexes"). The reference
//! scheduler keeps rescanning a flat array, which is what makes it a
//! reference.

use core::cmp::Reverse;
use core::hash::{BuildHasherDefault, Hasher};
use core::ops::Bound;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use dcnet::NodeAddr;
use dcsim::{fnv1a, SimDuration, SimTime, FNV1A_OFFSET};
use shell::tenant::{TenantCaps, TenantId};
use telemetry::{Histogram, MetricSource, MetricVisitor};

/// Tenant service class, in strict priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TenantClass {
    /// Paid, never preempted.
    Guaranteed,
    /// Default class; preemptible only when the lease opts in.
    Standard,
    /// Best-effort; always preemptible and reclaimable.
    Spot,
}

impl TenantClass {
    /// Priority rank: lower is stronger.
    pub fn rank(self) -> u8 {
        match self {
            TenantClass::Guaranteed => 0,
            TenantClass::Standard => 1,
            TenantClass::Spot => 2,
        }
    }

    /// All classes, strongest first.
    pub const ALL: [TenantClass; 3] = [
        TenantClass::Guaranteed,
        TenantClass::Standard,
        TenantClass::Spot,
    ];

    /// Short lowercase label (metric paths, reports).
    pub fn label(self) -> &'static str {
        match self {
            TenantClass::Guaranteed => "guaranteed",
            TenantClass::Standard => "standard",
            TenantClass::Spot => "spot",
        }
    }
}

/// One row of a placement snapshot: the region, its occupant lease id,
/// and any pending eviction as `(due_ns, reserved_request)`.
pub type PlacementRow = (RegionRef, Option<u64>, Option<(u64, Option<u64>)>);

/// One PR region on one board, the unit of placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionRef {
    /// The board.
    pub board: NodeAddr,
    /// Region index on the board (carve order).
    pub region: u8,
}

impl core::fmt::Display for RegionRef {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/r{}", self.board, self.region)
    }
}

/// A live lease of one PR region by one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionLease {
    /// Lease id (monotonic grant order).
    pub id: u64,
    /// The request sequence number that produced this lease.
    pub req: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Service class.
    pub class: TenantClass,
    /// ALMs the tenant asked for (≤ the region's size).
    pub alms: u32,
    /// Whether this lease may be preempted by a higher class.
    pub preemptible: bool,
    /// Shell isolation caps programmed for the tenant.
    pub caps: TenantCaps,
    /// Where the lease currently runs.
    pub at: RegionRef,
}

/// Why an elastic operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticError {
    /// No region on any up board is large enough, ever.
    RequestTooLarge {
        /// ALMs requested.
        alms: u32,
        /// Largest region in the pool (0 when no boards are up).
        largest: u32,
    },
    /// Direct preemption of a lease that is not preemptible.
    NotPreemptible(u64),
    /// Unknown lease or request id.
    UnknownLease(u64),
    /// Spot reclamation requested but no spot lease exists.
    SpotPoolEmpty,
    /// The board is not registered.
    UnknownBoard(NodeAddr),
    /// The board is already registered.
    DuplicateBoard(NodeAddr),
    /// A request with this id is still queued or still holds a lease.
    DuplicateRequest(u64),
    /// An all-or-nothing request wanted more whole boards than are free.
    InsufficientCapacity {
        /// Boards requested.
        wanted: u32,
        /// Boards free.
        free: u32,
    },
    /// The carve has more regions than [`RegionRef::region`] can number.
    TooManyRegions {
        /// The board being registered.
        board: NodeAddr,
        /// Regions in the rejected carve.
        regions: usize,
    },
}

impl core::fmt::Display for ElasticError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ElasticError::RequestTooLarge { alms, largest } => {
                write!(
                    f,
                    "request for {alms} ALMs exceeds largest region ({largest})"
                )
            }
            ElasticError::NotPreemptible(id) => write!(f, "lease {id} is not preemptible"),
            ElasticError::UnknownLease(id) => write!(f, "unknown lease/request {id}"),
            ElasticError::SpotPoolEmpty => f.write_str("no spot lease to reclaim"),
            ElasticError::UnknownBoard(a) => write!(f, "unknown board {a}"),
            ElasticError::DuplicateBoard(a) => write!(f, "board {a} already registered"),
            ElasticError::DuplicateRequest(req) => {
                write!(f, "request {req} is still queued or leased")
            }
            ElasticError::InsufficientCapacity { wanted, free } => {
                write!(f, "{wanted} boards requested, {free} free")
            }
            ElasticError::TooManyRegions { board, regions } => write!(
                f,
                "board {board} carved into {regions} regions, limit {MAX_REGIONS}"
            ),
        }
    }
}

impl std::error::Error for ElasticError {}

/// Elastic scheduler tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticConfig {
    /// Grace between an eviction decision and the region being free
    /// (victim checkpoint + region unload). Bounds priority inversion.
    pub eviction_window: SimDuration,
    /// Defragmentation repack period (0 disables defrag).
    pub defrag_period: SimDuration,
    /// Spot reclamation trigger: keep at least this share of the pool
    /// free or freeing, in permille.
    pub spot_reserve_permille: u32,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            // One role partial-reconfiguration plus checkpoint slack.
            eviction_window: SimDuration::from_millis(500),
            defrag_period: SimDuration::from_secs(10),
            spot_reserve_permille: 0,
        }
    }
}

/// One input to the scheduler: something a tenant or the fabric did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: LeaseEventKind,
}

/// The kinds of trace events the scheduler consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseEventKind {
    /// A tenant asks for a region.
    Request {
        /// Request sequence number (unique per trace; release handle).
        req: u64,
        /// Requesting tenant.
        tenant: TenantId,
        /// Service class.
        class: TenantClass,
        /// ALMs needed.
        alms: u32,
        /// Whether the resulting lease may be preempted (forced `true`
        /// for spot, ignored `false` for guaranteed).
        preemptible: bool,
        /// Shell caps to program while the lease runs.
        caps: TenantCaps,
    },
    /// The tenant is done with the lease created by request `req` (or
    /// cancels it while still queued).
    Release {
        /// The originating request sequence number.
        req: u64,
    },
    /// A board crashed: every lease on it is lost.
    BoardDown {
        /// The crashed board.
        board: NodeAddr,
    },
    /// A crashed board came back, all regions free.
    BoardUp {
        /// The recovered board.
        board: NodeAddr,
    },
}

/// One scheduler decision — the oracle compares these lock-step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Request `req` got lease `lease` at `at`.
    Grant {
        /// Request sequence number.
        req: u64,
        /// Newly minted lease id.
        lease: u64,
        /// Placement.
        at: RegionRef,
        /// Wait from arrival to grant, in nanoseconds.
        waited_ns: u64,
    },
    /// Request `req` cannot be placed yet and waits.
    Queue {
        /// Request sequence number.
        req: u64,
    },
    /// Lease `victim` is being evicted so `for_req` can take its region
    /// after the eviction window.
    Evict {
        /// Evicted lease.
        victim: u64,
        /// Beneficiary request.
        for_req: u64,
        /// Region being vacated.
        at: RegionRef,
    },
    /// Spot lease `victim` is being reclaimed to refill the free pool.
    Reclaim {
        /// Reclaimed lease.
        victim: u64,
        /// Region being vacated.
        at: RegionRef,
    },
    /// Defragmentation moved lease `lease`.
    Migrate {
        /// The migrated lease.
        lease: u64,
        /// Old placement.
        from: RegionRef,
        /// New placement.
        to: RegionRef,
    },
    /// Request `req` can never be satisfied (larger than any region).
    Reject {
        /// Request sequence number.
        req: u64,
    },
    /// The lease created by request `req` ended (`lease` is `None` when
    /// the request was still queued or already gone).
    Release {
        /// The originating request.
        req: u64,
        /// The released lease, if one was live.
        lease: Option<u64>,
    },
    /// A board crashed, losing these leases (ascending lease id).
    BoardDown {
        /// The crashed board.
        board: NodeAddr,
        /// Leases that died with it.
        lost: Vec<u64>,
    },
    /// A board recovered.
    BoardUp {
        /// The recovered board.
        board: NodeAddr,
    },
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    alms: u32,
    lease: Option<u64>,
    /// An eviction in progress: when the region frees, and the request
    /// (if any) the region is reserved for.
    pending: Option<(SimTime, Option<u64>)>,
}

#[derive(Debug, Clone)]
struct BoardState {
    addr: NodeAddr,
    up: bool,
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, Copy)]
struct Waiting {
    req: u64,
    tenant: TenantId,
    class: TenantClass,
    alms: u32,
    preemptible: bool,
    caps: TenantCaps,
    arrived: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    /// Waiting in `queue` under `(rank, req, arrival)`: the request's one
    /// queue entry is a lookup, not a search.
    Queued {
        rank: u8,
        arrival: u64,
    },
    Active(u64),
}

/// Hasher of the id tables: one multiply by the Fx constant per word.
/// Ids come from the trace, not from an adversary, and an id table is
/// iterated only where order cannot matter (a sum, a membership check) or
/// is restored by a sort, so a fixed hash costs nothing in determinism
/// and skips SipHash's rounds. The multiplier is odd, so ids that differ
/// only in their low bits land in distinct buckets.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    /// [`NodeAddr`]'s three coordinates.
    fn write_u16(&mut self, word: u16) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0.rotate_left(5) ^ id).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A table keyed by an id, under [`IdHasher`].
type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Every request id ever accepted, as sorted, disjoint inclusive ranges
/// `(first, last)` with a gap between neighbours. A trace numbers its
/// requests in order, so each new id extends the last range in place and
/// a whole run is one range; any id order stays correct, merely with more
/// ranges. Inclusive bounds hold `u64::MAX` without overflow.
#[derive(Debug, Clone, Default)]
struct SeenIds(Vec<(u64, u64)>);

impl SeenIds {
    /// The first range not wholly below `id`.
    fn position(&self, id: u64) -> usize {
        self.0.partition_point(|&(_, last)| last < id)
    }

    fn contains(&self, id: u64) -> bool {
        self.0
            .get(self.position(id))
            .is_some_and(|&(first, _)| first <= id)
    }

    fn insert(&mut self, id: u64) {
        let i = self.position(id);
        let next = self.0.get(i).map(|&(first, _)| first);
        if next.is_some_and(|first| first <= id) {
            return;
        }
        // `last < id < first` of the neighbours, so neither `+ 1` overflows.
        let joins_prev = i > 0 && self.0[i - 1].1 + 1 == id;
        let joins_next = next.is_some_and(|first| id + 1 == first);
        match (joins_prev, joins_next) {
            (true, true) => {
                self.0[i - 1].1 = self.0[i].1;
                self.0.remove(i);
            }
            (true, false) => self.0[i - 1].1 = id,
            (false, true) => self.0[i].0 = id,
            (false, false) => self.0.insert(i, (id, id)),
        }
    }

    /// Whether the ranges are non-empty, ascending, disjoint and not
    /// adjacent (adjacent ranges would have been merged).
    fn is_canonical(&self) -> bool {
        self.0.iter().all(|&(first, last)| first <= last)
            && self
                .0
                .windows(2)
                .all(|w| w[0].1 < w[1].0 && w[1].0 - w[0].1 > 1)
    }
}

/// A slot's coordinates inside the scheduler: board **registration
/// index** and region. Every index below is keyed by this, never by
/// [`NodeAddr`], because registration order is the placement tie-break.
type At = (u32, u8);

/// Most regions one board may be carved into ([`RegionRef::region`] is a
/// `u8`).
const MAX_REGIONS: usize = u8::MAX as usize + 1;

/// Wait-queue key: `(class rank, request, arrival number)` — the grant
/// order, strongest class first, then request id, then arrival.
type QueueKey = (u8, u64, u64);

/// Victim key: weakest class first, then smallest region, then lowest
/// lease id.
type VictimKey = (Reverse<u8>, u32, u64);

fn set_member<K: Ord>(set: &mut BTreeSet<K>, key: K, member: bool) {
    if member {
        set.insert(key);
    } else {
        set.remove(&key);
    }
}

/// The elastic multi-tenant scheduler.
///
/// # Examples
///
/// ```
/// use dcnet::NodeAddr;
/// use dcsim::SimTime;
/// use haas::{
///     Decision, ElasticConfig, ElasticScheduler, LeaseEvent, LeaseEventKind, TenantClass,
/// };
/// use shell::tenant::{TenantCaps, TenantId};
///
/// let mut sched = ElasticScheduler::new(ElasticConfig::default());
/// sched.add_board(NodeAddr::new(0, 0, 1), &[40_000, 40_000])?;
/// let decisions = sched.apply(&LeaseEvent {
///     at: SimTime::ZERO,
///     kind: LeaseEventKind::Request {
///         req: 0,
///         tenant: TenantId(7),
///         class: TenantClass::Standard,
///         alms: 30_000,
///         preemptible: false,
///         caps: TenantCaps::UNLIMITED,
///     },
/// });
/// assert!(matches!(decisions[0], Decision::Grant { req: 0, .. }));
/// # Ok::<(), haas::ElasticError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ElasticScheduler {
    cfg: ElasticConfig,
    boards: Vec<BoardState>,
    /// Registration index by address.
    board_index: IdMap<NodeAddr, u32>,
    /// Live leases by id: at most one per region.
    leases: IdMap<u64, RegionLease>,
    /// Waiting requests in grant order.
    queue: BTreeMap<QueueKey, Waiting>,
    /// Requests ever queued (the arrival number of the next one).
    arrivals: u64,
    /// The state of every live request: one per queue entry plus one per
    /// live lease. A done request leaves it.
    req_state: IdMap<u64, ReqState>,
    /// Every request id ever accepted, live or done, so a release can
    /// tell a finished request from one never seen.
    seen: SeenIds,
    next_lease: u64,
    clock: SimTime,
    defrag_done: u64,
    /// The decisions of the latest public call: cleared as each starts.
    decisions: Vec<Decision>,
    /// Decisions made since creation.
    decision_count: u64,
    /// FNV-1a over every decision since creation, folded as each is made.
    fingerprint: u64,
    // Derived state. Each set's order is the tie-break of the rule it
    // serves; all of it is a function of `boards` + `leases` (see
    // `indexes_match_rescan`) and changes only through `unindex` →
    // mutate → `index`.
    /// Free, unreserved regions on up boards by `(alms, board, region)`:
    /// best fit is the first entry at or above the request.
    free: BTreeSet<(u32, u32, u8)>,
    /// Evictions in flight by `(due, board, region)`: completion order.
    evictions: BTreeSet<(SimTime, u32, u8)>,
    /// Regions an eviction reserved, by `(request, board, region)`.
    reserved: BTreeSet<(u64, u32, u8)>,
    /// Preemptible leases on up boards with no eviction pending.
    victims: BTreeSet<VictimKey>,
    /// ALMs leased (demand): the sum over `leases`.
    used_alms: u64,
    /// Region ALMs on up boards.
    pool_alms: u64,
    /// Largest region on an up board.
    largest: u32,
    /// Region ALMs on up boards that are leased and not being vacated.
    busy_alms: u64,
    // Accounting.
    util_integral: u128,
    grants: u64,
    preemptions: u64,
    reclamations: u64,
    migrations: u64,
    rejects: u64,
    lost_leases: u64,
    wait_ns: [Histogram; 3],
    /// Planted-bug hook for oracle validation: defrag migrations zero
    /// the moved lease's caps.
    debug_defrag_drop_caps: bool,
}

impl ElasticScheduler {
    /// Creates an empty scheduler.
    pub fn new(cfg: ElasticConfig) -> ElasticScheduler {
        ElasticScheduler {
            cfg,
            boards: Vec::new(),
            board_index: IdMap::default(),
            leases: IdMap::default(),
            queue: BTreeMap::new(),
            arrivals: 0,
            req_state: IdMap::default(),
            seen: SeenIds::default(),
            next_lease: 0,
            clock: SimTime::ZERO,
            defrag_done: 0,
            decisions: Vec::new(),
            decision_count: 0,
            fingerprint: FNV1A_OFFSET,
            free: BTreeSet::new(),
            evictions: BTreeSet::new(),
            reserved: BTreeSet::new(),
            victims: BTreeSet::new(),
            used_alms: 0,
            pool_alms: 0,
            largest: 0,
            busy_alms: 0,
            util_integral: 0,
            grants: 0,
            preemptions: 0,
            reclamations: 0,
            migrations: 0,
            rejects: 0,
            lost_leases: 0,
            wait_ns: [Histogram::new(), Histogram::new(), Histogram::new()],
            debug_defrag_drop_caps: false,
        }
    }

    /// Registers a board carved into regions of the given ALM sizes.
    /// Registration order is the placement tie-break order.
    ///
    /// # Errors
    ///
    /// [`ElasticError::DuplicateBoard`] when already registered;
    /// [`ElasticError::TooManyRegions`] for a carve of more than 256
    /// regions. Nothing is registered on error.
    pub fn add_board(&mut self, addr: NodeAddr, region_alms: &[u32]) -> Result<(), ElasticError> {
        if self.board_index.contains_key(&addr) {
            return Err(ElasticError::DuplicateBoard(addr));
        }
        if region_alms.len() > MAX_REGIONS {
            return Err(ElasticError::TooManyRegions {
                board: addr,
                regions: region_alms.len(),
            });
        }
        let b = u32::try_from(self.boards.len()).expect("fewer than 2^32 boards");
        self.board_index.insert(addr, b);
        let board = BoardState {
            addr,
            up: true,
            slots: region_alms
                .iter()
                .map(|&alms| Slot {
                    alms,
                    lease: None,
                    pending: None,
                })
                .collect(),
        };
        let (total, top) = board_capacity(&board);
        self.pool_alms += total;
        self.largest = self.largest.max(top);
        self.boards.push(board);
        self.index_board(b);
        self.check_indexes();
        Ok(())
    }

    /// Enables the planted defrag bug (oracle-validation only): every
    /// migration zeroes the moved lease's shell caps.
    pub fn set_debug_defrag_drop_caps(&mut self, on: bool) {
        self.debug_defrag_drop_caps = on;
    }

    /// The decisions the latest call of [`apply`], [`advance_to`] or a
    /// direct event method made, in order.
    ///
    /// [`apply`]: ElasticScheduler::apply
    /// [`advance_to`]: ElasticScheduler::advance_to
    pub fn last_decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Decisions made since creation.
    pub fn decision_count(&self) -> u64 {
        self.decision_count
    }

    /// FNV-1a fingerprint of every decision since creation
    /// (order-sensitive).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Live leases, ascending id.
    pub fn leases(&self) -> impl Iterator<Item = &RegionLease> {
        let mut live: Vec<&RegionLease> = self.leases.values().collect();
        live.sort_unstable_by_key(|l| l.id);
        live.into_iter()
    }

    /// Whether a registered board is up, and the lease in its first
    /// region (a whole-board carve's only one); `None` when unregistered.
    pub fn board(&self, addr: NodeAddr) -> Option<(bool, Option<&RegionLease>)> {
        let board = &self.boards[*self.board_index.get(&addr)? as usize];
        let lease = board.slots.first().and_then(|s| self.leases.get(&s.lease?));
        Some((board.up, lease))
    }

    /// Requests currently waiting, in arrival order.
    pub fn queued_reqs(&self) -> Vec<u64> {
        let mut by_arrival: Vec<(u64, u64)> = self
            .queue
            .keys()
            .map(|&(_, req, arrival)| (arrival, req))
            .collect();
        by_arrival.sort_unstable();
        by_arrival.into_iter().map(|(_, req)| req).collect()
    }

    /// Total region ALMs on up boards.
    pub fn pool_alms(&self) -> u64 {
        self.pool_alms
    }

    /// ALMs currently leased (demand, not region sizes).
    pub fn used_alms(&self) -> u64 {
        self.used_alms
    }

    /// Time-averaged utilization in permille of the pool, over `[0, clock]`.
    pub fn avg_utilization_permille(&self) -> u64 {
        let pool = self.pool_alms as u128;
        let t = self.clock.as_nanos() as u128;
        if pool == 0 || t == 0 {
            return 0;
        }
        (self.util_integral * 1000 / (pool * t)) as u64
    }

    /// (grants, preemptions, reclamations, migrations, rejects, lost).
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.grants,
            self.preemptions,
            self.reclamations,
            self.migrations,
            self.rejects,
            self.lost_leases,
        )
    }

    /// Wait-time histogram (ns) for one class.
    pub fn wait_histogram(&self, class: TenantClass) -> &Histogram {
        &self.wait_ns[class.rank() as usize]
    }

    /// Canonical placement snapshot: every (board, region) with its
    /// occupant lease id, plus pending reservations — the oracle equates
    /// these between implementations.
    pub fn placement(&self) -> Vec<PlacementRow> {
        let mut out = Vec::new();
        for b in &self.boards {
            for (i, s) in b.slots.iter().enumerate() {
                out.push((
                    RegionRef {
                        board: b.addr,
                        region: i as u8,
                    },
                    s.lease,
                    s.pending.map(|(t, r)| (t.as_nanos(), r)),
                ));
            }
        }
        out
    }

    /// Rebuilds every index and running counter from `boards` and
    /// `leases` by full scan and compares them with the incrementally
    /// maintained ones, naming the first that differs. The id tables are
    /// checked from the side that names the id: every occupied slot's
    /// lease is in the lease table at that slot, and the table holds
    /// nothing else, each lease under its own id; every queue entry's
    /// request is queued under that entry's key, every lease's request
    /// holds that lease, no other request is live, and every live request
    /// is in the canonical record of ids ever accepted. The test oracle
    /// for the indexes: debug builds assert it after every public mutator.
    pub fn indexes_match_rescan(&self) -> Result<(), String> {
        let (mut free, mut evictions, mut reserved, mut victims) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut pool_alms, mut busy_alms, mut largest) = (0u64, 0u64, 0u32);
        let mut occupied = 0usize;
        for (b, board) in self.boards.iter().enumerate() {
            for (r, s) in board.slots.iter().enumerate() {
                let (b, r) = (b as u32, r as u8);
                if let Some(id) = s.lease {
                    occupied += 1;
                    let here = self.region_ref((b, r));
                    let record = self.leases.get(&id);
                    if record.map(|l| l.at) != Some(here) {
                        return Err(format!(
                            "leases: {here} holds lease {id}, table has {record:?}"
                        ));
                    }
                }
                if let Some((due, for_req)) = s.pending {
                    evictions.push((due, b, r));
                    if let Some(req) = for_req {
                        reserved.push((req, b, r));
                    }
                }
                if !board.up {
                    continue;
                }
                pool_alms += s.alms as u64;
                largest = largest.max(s.alms);
                if s.pending.is_some() {
                    continue;
                }
                match s.lease {
                    None => free.push((s.alms, b, r)),
                    Some(id) => {
                        busy_alms += s.alms as u64;
                        if let Some(l) = self.leases.get(&id).filter(|l| l.preemptible) {
                            victims.push((Reverse(l.class.rank()), s.alms, id));
                        }
                    }
                }
            }
        }
        let used_alms: u64 = self.leases.values().map(|l| l.alms as u64).sum();
        fn same_set<K: Ord + core::fmt::Debug>(
            what: &str,
            kept: &BTreeSet<K>,
            mut rescan: Vec<K>,
        ) -> Result<(), String> {
            rescan.sort_unstable();
            if kept.iter().eq(&rescan) {
                Ok(())
            } else {
                Err(format!("{what}: kept {kept:?}, rescan finds {rescan:?}"))
            }
        }
        same_set("free", &self.free, free)?;
        same_set("evictions", &self.evictions, evictions)?;
        same_set("reserved", &self.reserved, reserved)?;
        same_set("victims", &self.victims, victims)?;
        for (what, kept, rescan) in [
            ("used_alms", self.used_alms, used_alms),
            ("pool_alms", self.pool_alms, pool_alms),
            ("largest", self.largest as u64, largest as u64),
            ("busy_alms", self.busy_alms, busy_alms),
        ] {
            if kept != rescan {
                return Err(format!("{what}: kept {kept}, rescan finds {rescan}"));
            }
        }
        let misfiled = self
            .leases
            .iter()
            .find(|&(&id, l)| id != l.id || id >= self.next_lease);
        if self.leases.len() != occupied || misfiled.is_some() {
            return Err(format!(
                "leases: {} stored, {occupied} slots occupied, next id {}, misfiled {misfiled:?}",
                self.leases.len(),
                self.next_lease
            ));
        }
        for (key, w) in &self.queue {
            let state = self.req_state.get(&w.req);
            let filed = ReqState::Queued {
                rank: key.0,
                arrival: key.2,
            };
            if (key.0, key.1) != (w.class.rank(), w.req) || state != Some(&filed) {
                return Err(format!("queue: {w:?} filed under {key:?}, state {state:?}"));
            }
        }
        if let Some(l) = self
            .leases
            .values()
            .find(|l| self.req_state.get(&l.req) != Some(&ReqState::Active(l.id)))
        {
            let state = self.req_state.get(&l.req);
            return Err(format!(
                "req_state: request {} of lease {} is {state:?}",
                l.req, l.id
            ));
        }
        if self.req_state.len() != self.queue.len() + self.leases.len() {
            return Err(format!(
                "req_state: {} live requests, {} queued + {} leased",
                self.req_state.len(),
                self.queue.len(),
                self.leases.len()
            ));
        }
        if !self.seen.is_canonical() {
            return Err(format!("seen: ranges {:?} not canonical", self.seen.0));
        }
        if let Some(req) = self.req_state.keys().find(|&&req| !self.seen.contains(req)) {
            return Err(format!("seen: live request {req} was never accepted"));
        }
        Ok(())
    }

    fn check_indexes(&self) {
        debug_assert_eq!(self.indexes_match_rescan(), Ok(()));
    }

    /// Applies one trace event, returning the decisions it produced
    /// (what [`last_decisions`](Self::last_decisions) returns next).
    /// Events must arrive in non-decreasing time order.
    pub fn apply(&mut self, ev: &LeaseEvent) -> &[Decision] {
        match &ev.kind {
            LeaseEventKind::Request {
                req,
                tenant,
                class,
                alms,
                preemptible,
                caps,
            } => {
                let _ = self.request(ev.at, *req, *tenant, *class, *alms, *preemptible, *caps);
            }
            LeaseEventKind::Release { req } => {
                let _ = self.release(ev.at, *req);
            }
            LeaseEventKind::BoardDown { board } => {
                let _ = self.board_down(ev.at, *board);
            }
            LeaseEventKind::BoardUp { board } => {
                let _ = self.board_up(ev.at, *board);
            }
        }
        &self.decisions
    }

    /// Runs time forward to `now`, completing due evictions and defrag
    /// boundaries in time order. Called automatically by [`apply`];
    /// public so the driver can settle trailing evictions at trace end.
    ///
    /// [`apply`]: ElasticScheduler::apply
    pub fn advance_to(&mut self, now: SimTime) {
        self.begin(now);
        self.check_indexes();
    }

    /// Starts a public call at `now`: forgets the previous call's
    /// decisions, then runs time forward.
    fn begin(&mut self, now: SimTime) {
        self.decisions.clear();
        self.advance(now);
    }

    fn advance(&mut self, now: SimTime) {
        loop {
            let next_evict = self.evictions.first().map(|&(due, _, _)| due);
            let next_defrag = if self.cfg.defrag_period.as_nanos() == 0 {
                None
            } else {
                Some(SimTime::from_nanos(
                    (self.defrag_done + 1) * self.cfg.defrag_period.as_nanos(),
                ))
            };
            // Evictions at time T complete before a defrag boundary at T.
            let step = match (next_evict, next_defrag) {
                (Some(e), Some(d)) if e <= d => (e, true),
                (Some(e), None) => (e, true),
                (_, Some(d)) => (d, false),
                (None, None) => break,
            };
            if step.0 > now {
                break;
            }
            self.account(step.0);
            if step.1 {
                self.complete_evictions(step.0);
            } else {
                self.defrag_done = step.0.as_nanos() / self.cfg.defrag_period.as_nanos();
                self.defrag(step.0);
            }
        }
        self.account(now);
    }

    fn account(&mut self, to: SimTime) {
        if to > self.clock {
            let dt = (to.as_nanos() - self.clock.as_nanos()) as u128;
            self.util_integral += self.used_alms as u128 * dt;
            self.clock = to;
        }
    }

    fn push(&mut self, d: Decision) {
        self.fingerprint = fingerprint_decision(self.fingerprint, &d);
        self.decision_count += 1;
        self.decisions.push(d);
    }

    /// Submits a request directly (the [`apply`] path for
    /// [`LeaseEventKind::Request`]).
    ///
    /// # Errors
    ///
    /// [`ElasticError::RequestTooLarge`] when no region on any up board
    /// can ever hold `alms`; the request is also recorded as a
    /// [`Decision::Reject`]. [`ElasticError::DuplicateRequest`] when `req`
    /// is still queued or still holds a lease: two live requests under
    /// one id could not be told apart by the reservation and release
    /// that name them, so nothing is recorded and nothing changes (an id
    /// whose request is done may be reused).
    ///
    /// [`apply`]: ElasticScheduler::apply
    #[allow(clippy::too_many_arguments)]
    pub fn request(
        &mut self,
        now: SimTime,
        req: u64,
        tenant: TenantId,
        class: TenantClass,
        alms: u32,
        preemptible: bool,
        caps: TenantCaps,
    ) -> Result<(), ElasticError> {
        self.begin(now);
        if self.req_state.contains_key(&req) {
            self.check_indexes();
            return Err(ElasticError::DuplicateRequest(req));
        }
        self.seen.insert(req);
        if alms > self.largest {
            self.rejects += 1;
            self.push(Decision::Reject { req });
            self.check_indexes();
            return Err(ElasticError::RequestTooLarge {
                alms,
                largest: self.largest,
            });
        }
        // Spot is always preemptible; guaranteed never is.
        let preemptible = match class {
            TenantClass::Guaranteed => false,
            TenantClass::Standard => preemptible,
            TenantClass::Spot => true,
        };
        let w = Waiting {
            req,
            tenant,
            class,
            alms,
            preemptible,
            caps,
            arrived: now,
        };
        if let Some(at) = self.best_fit_free(alms) {
            self.grant(now, &w, at);
        } else {
            let (rank, arrival) = (class.rank(), self.arrivals);
            self.queue.insert((rank, req, arrival), w);
            self.req_state
                .insert(req, ReqState::Queued { rank, arrival });
            self.arrivals += 1;
            self.push(Decision::Queue { req });
            self.try_preempt_for(now, &w);
        }
        self.reclaim_if_drained(now);
        self.check_indexes();
        Ok(())
    }

    /// Releases the lease created by request `req` (or cancels the
    /// still-queued request).
    ///
    /// # Errors
    ///
    /// [`ElasticError::UnknownLease`] when `req` was never submitted.
    pub fn release(&mut self, now: SimTime, req: u64) -> Result<(), ElasticError> {
        self.begin(now);
        let result = match self.req_state.remove(&req) {
            // Releasing a done request again is a no-op.
            None => {
                self.push(Decision::Release { req, lease: None });
                if self.seen.contains(req) {
                    Ok(())
                } else {
                    Err(ElasticError::UnknownLease(req))
                }
            }
            Some(ReqState::Queued { rank, arrival }) => {
                self.queue.remove(&(rank, req, arrival));
                // Drop any reservation an eviction made for this request;
                // the eviction itself still completes (the victim is
                // already checkpointing).
                while let Some(at) = self.reservation(req) {
                    self.unindex(at);
                    if let Some((_, for_req)) = &mut self.slot_mut(at).pending {
                        *for_req = None;
                    }
                    self.index(at);
                }
                self.push(Decision::Release { req, lease: None });
                Ok(())
            }
            Some(ReqState::Active(id)) => match self.leases.get(&id).map(|l| l.at) {
                None => Err(ElasticError::UnknownLease(id)),
                Some(region) => {
                    let at = self.locate(region);
                    self.unindex(at);
                    self.slot_mut(at).lease = None;
                    self.end_lease(id);
                    self.index(at);
                    self.push(Decision::Release {
                        req,
                        lease: Some(id),
                    });
                    self.grant_queued(now);
                    Ok(())
                }
            },
        };
        self.check_indexes();
        result
    }

    /// Directly preempts one lease (test/diagnostic path; trace-driven
    /// preemption happens inside [`request`]).
    ///
    /// # Errors
    ///
    /// [`ElasticError::UnknownLease`] / [`ElasticError::NotPreemptible`].
    ///
    /// [`request`]: ElasticScheduler::request
    pub fn preempt(&mut self, now: SimTime, lease: u64) -> Result<(), ElasticError> {
        self.begin(now);
        let result = match self.leases.get(&lease).map(|l| (l.preemptible, l.at)) {
            None => Err(ElasticError::UnknownLease(lease)),
            Some((false, _)) => Err(ElasticError::NotPreemptible(lease)),
            Some((true, region)) => {
                let at = self.locate(region);
                if self.slot(at).pending.is_none() {
                    self.start_eviction(now, at, None);
                }
                self.preemptions += 1;
                self.push(Decision::Reclaim {
                    victim: lease,
                    at: region,
                });
                Ok(())
            }
        };
        self.check_indexes();
        result
    }

    /// Reclaims one spot lease to refill the free pool (the explicit
    /// form of the automatic low-water reclamation).
    ///
    /// # Errors
    ///
    /// [`ElasticError::SpotPoolEmpty`] when no spot lease is live.
    pub fn reclaim_spot(&mut self, now: SimTime) -> Result<u64, ElasticError> {
        self.begin(now);
        let victim = self.spot_victim();
        if let Some(victim) = victim {
            self.start_reclaim(now, victim);
        }
        self.check_indexes();
        victim.ok_or(ElasticError::SpotPoolEmpty)
    }

    /// Marks a board down; leases on it are lost immediately.
    ///
    /// # Errors
    ///
    /// [`ElasticError::UnknownBoard`] for unregistered boards.
    pub fn board_down(&mut self, now: SimTime, board: NodeAddr) -> Result<(), ElasticError> {
        self.begin(now);
        let Some(&b) = self.board_index.get(&board) else {
            self.check_indexes();
            return Err(ElasticError::UnknownBoard(board));
        };
        self.unindex_board(b);
        let state = &mut self.boards[b as usize];
        let was_up = std::mem::replace(&mut state.up, false);
        let mut lost = Vec::new();
        for s in &mut state.slots {
            if let Some(id) = s.lease.take() {
                lost.push(id);
            }
            // Reserved requests go back to plain queued (they were never
            // removed from the queue).
            s.pending = None;
        }
        if was_up {
            let (total, top) = board_capacity(state);
            self.pool_alms -= total;
            if top == self.largest {
                self.largest = self
                    .boards
                    .iter()
                    .filter(|b| b.up)
                    .map(|b| board_capacity(b).1)
                    .max()
                    .unwrap_or(0);
            }
        }
        lost.sort_unstable();
        for &id in &lost {
            self.end_lease(id);
        }
        self.index_board(b);
        self.lost_leases += lost.len() as u64;
        self.push(Decision::BoardDown { board, lost });
        // Reservations on the dead board vanished with it; queued
        // requests that were counting on them must re-arm preemption or
        // their priority inversion becomes unbounded.
        self.repreempt_queued(now);
        self.check_indexes();
        Ok(())
    }

    /// Marks a board back up, all regions free.
    ///
    /// # Errors
    ///
    /// [`ElasticError::UnknownBoard`] for unregistered boards.
    pub fn board_up(&mut self, now: SimTime, board: NodeAddr) -> Result<(), ElasticError> {
        self.begin(now);
        let Some(&b) = self.board_index.get(&board) else {
            self.check_indexes();
            return Err(ElasticError::UnknownBoard(board));
        };
        self.unindex_board(b);
        let state = &mut self.boards[b as usize];
        if !std::mem::replace(&mut state.up, true) {
            let (total, top) = board_capacity(state);
            self.pool_alms += total;
            self.largest = self.largest.max(top);
        }
        self.index_board(b);
        self.push(Decision::BoardUp { board });
        self.grant_queued(now);
        self.check_indexes();
        Ok(())
    }

    // ----- internals ------------------------------------------------

    fn slot(&self, at: At) -> &Slot {
        &self.boards[at.0 as usize].slots[at.1 as usize]
    }

    fn slot_mut(&mut self, at: At) -> &mut Slot {
        &mut self.boards[at.0 as usize].slots[at.1 as usize]
    }

    fn region_ref(&self, at: At) -> RegionRef {
        RegionRef {
            board: self.boards[at.0 as usize].addr,
            region: at.1,
        }
    }

    /// Where a live lease's region sits (boards are never unregistered).
    fn locate(&self, region: RegionRef) -> At {
        (self.board_index[&region.board], region.region)
    }

    /// Adds (`member`) or removes what one slot contributes to the
    /// indexes and counters. The contribution is a function of the slot,
    /// its board's `up` flag and its occupant's lease record together, so
    /// every change to any of the three sits between an [`unindex`] and
    /// an [`index`] of the slot — entries leave under the old state and
    /// come back under the new one.
    ///
    /// [`unindex`]: Self::unindex
    /// [`index`]: Self::index
    fn set_indexed(&mut self, at: At, member: bool) {
        let (b, r) = at;
        let up = self.boards[b as usize].up;
        let Slot {
            alms,
            lease,
            pending,
        } = *self.slot(at);
        if let Some((due, for_req)) = pending {
            set_member(&mut self.evictions, (due, b, r), member);
            if let Some(req) = for_req {
                set_member(&mut self.reserved, (req, b, r), member);
            }
        } else if up {
            match lease {
                None => set_member(&mut self.free, (alms, b, r), member),
                Some(id) => {
                    if member {
                        self.busy_alms += alms as u64;
                    } else {
                        self.busy_alms -= alms as u64;
                    }
                    if let Some(l) = self.leases.get(&id).filter(|l| l.preemptible) {
                        set_member(
                            &mut self.victims,
                            (Reverse(l.class.rank()), alms, id),
                            member,
                        );
                    }
                }
            }
        }
    }

    fn unindex(&mut self, at: At) {
        self.set_indexed(at, false);
    }

    fn index(&mut self, at: At) {
        self.set_indexed(at, true);
    }

    fn unindex_board(&mut self, b: u32) {
        for r in 0..self.boards[b as usize].slots.len() {
            self.unindex((b, r as u8));
        }
    }

    fn index_board(&mut self, b: u32) {
        for r in 0..self.boards[b as usize].slots.len() {
            self.index((b, r as u8));
        }
    }

    /// Removes a lease record whose slot is already unindexed; its
    /// request is done.
    fn end_lease(&mut self, id: u64) {
        if let Some(l) = self.leases.remove(&id) {
            self.used_alms -= l.alms as u64;
            self.req_state.remove(&l.req);
        }
    }

    /// The queue key of request `req`, if it is waiting.
    fn queued_key(&self, req: u64) -> Option<QueueKey> {
        match self.req_state.get(&req) {
            Some(&ReqState::Queued { rank, arrival }) => Some((rank, req, arrival)),
            _ => None,
        }
    }

    /// A region reserved for request `req`, if an eviction holds one.
    fn reservation(&self, req: u64) -> Option<At> {
        self.reserved
            .range((req, 0, 0)..=(req, u32::MAX, u8::MAX))
            .next()
            .map(|&(_, b, r)| (b, r))
    }

    /// Smallest free, unreserved region on an up board that fits `alms`;
    /// ties by registration order then region index.
    fn best_fit_free(&self, alms: u32) -> Option<At> {
        self.free
            .range((alms, 0, 0)..)
            .next()
            .map(|&(_, b, r)| (b, r))
    }

    fn grant(&mut self, now: SimTime, w: &Waiting, at: At) {
        let id = self.next_lease;
        self.next_lease += 1;
        let region = self.region_ref(at);
        self.unindex(at);
        self.slot_mut(at).lease = Some(id);
        self.leases.insert(
            id,
            RegionLease {
                id,
                req: w.req,
                tenant: w.tenant,
                class: w.class,
                alms: w.alms,
                preemptible: w.preemptible,
                caps: w.caps,
                at: region,
            },
        );
        self.used_alms += w.alms as u64;
        self.index(at);
        self.req_state.insert(w.req, ReqState::Active(id));
        self.grants += 1;
        let waited_ns = now.as_nanos().saturating_sub(w.arrived.as_nanos());
        self.wait_ns[w.class.rank() as usize].record(waited_ns);
        self.push(Decision::Grant {
            req: w.req,
            lease: id,
            at: region,
            waited_ns,
        });
    }

    /// Grants queued requests that now fit, strongest class first, then
    /// arrival order; requests that still don't fit are skipped (no
    /// head-of-line blocking across sizes). One pass in queue order is
    /// the whole rule: a grant only shrinks the free set, so a request
    /// passed over stays unplaceable for the rest of the pass.
    fn grant_queued(&mut self, now: SimTime) {
        let mut from = Bound::Unbounded;
        while let Some(&(max_free, _, _)) = self.free.last() {
            let Some((&key, &w)) = self
                .queue
                .range((from, Bound::Unbounded))
                .find(|(_, w)| w.alms <= max_free)
            else {
                break;
            };
            self.queue.remove(&key);
            let at = self
                .best_fit_free(w.alms)
                .expect("the largest free region fits");
            self.grant(now, &w, at);
            from = Bound::Excluded(key);
        }
    }

    /// Largest region holding a victim of class `rank`.
    fn victim_ceiling(&self, rank: u8) -> Option<u32> {
        self.victims
            .range((Reverse(rank), 0, 0)..=(Reverse(rank), u32::MAX, u64::MAX))
            .next_back()
            .map(|&(_, alms, _)| alms)
    }

    /// Re-attempts preemption for every queued request that holds no
    /// reservation and fits no free region, strongest class first — the
    /// recovery path after a board crash drops in-flight reservations.
    fn repreempt_queued(&mut self, now: SimTime) {
        // Per requesting class, the largest region any strictly weaker
        // victim holds. The pass only removes victims and leaves the free
        // set alone, so both bounds may go stale as supersets: a request
        // that passes them still gets the exact lookup, and one that
        // fails them could not have found a victim (or fits free space).
        let spot = self.victim_ceiling(TenantClass::Spot.rank());
        let standard = self.victim_ceiling(TenantClass::Standard.rank());
        let ceiling = [standard.max(spot), spot];
        // Classes with no weaker victim at all are not even visited: they
        // are a suffix of the queue order.
        let classes = ceiling.iter().flatten().count() as u8;
        let max_free = self.free.last().map(|&(alms, _, _)| alms);
        // Nothing below touches the queue; taking it out lets the pass
        // borrow `self` mutably.
        let queue = std::mem::take(&mut self.queue);
        for w in queue.range(..(classes, 0, 0)).map(|(_, w)| w) {
            if ceiling[w.class.rank() as usize].is_none_or(|c| w.alms > c)
                || max_free.is_some_and(|f| w.alms <= f)
                || self.reservation(w.req).is_some()
            {
                continue;
            }
            self.try_preempt_for(now, w);
        }
        self.queue = queue;
    }

    /// Tries to arrange a preemption for a just-queued request: evict the
    /// weakest preemptible lease of a strictly lower class, in the
    /// smallest sufficient region; ties by lease id.
    fn try_preempt_for(&mut self, now: SimTime, w: &Waiting) {
        let weaker = (w.class.rank() + 1..=TenantClass::Spot.rank()).rev();
        let Some(victim) = weaker
            .filter_map(|rank| {
                self.victims
                    .range((Reverse(rank), w.alms, 0)..=(Reverse(rank), u32::MAX, u64::MAX))
                    .next()
            })
            .map(|&(_, _, id)| id)
            .next()
        else {
            return;
        };
        let Some(region) = self.leases.get(&victim).map(|l| l.at) else {
            return;
        };
        self.start_eviction(now, self.locate(region), Some(w.req));
        self.preemptions += 1;
        self.push(Decision::Evict {
            victim,
            for_req: w.req,
            at: region,
        });
    }

    /// Starts vacating a region: it frees one eviction window from `now`,
    /// reserved for `for_req` if given.
    fn start_eviction(&mut self, now: SimTime, at: At, for_req: Option<u64>) {
        self.unindex(at);
        self.slot_mut(at).pending = Some((now + self.cfg.eviction_window, for_req));
        self.index(at);
    }

    /// Completes every eviction due exactly at `t`, in board/region
    /// order; freed regions go to their reserved request first, then the
    /// general queue.
    fn complete_evictions(&mut self, t: SimTime) {
        let mut freed = false;
        while let Some(&(_, b, r)) = self.evictions.first().filter(|k| k.0 == t) {
            freed = true;
            let at = (b, r);
            self.unindex(at);
            let slot = self.slot_mut(at);
            let reserved = slot.pending.take().and_then(|(_, for_req)| for_req);
            // The victim lease dies now (it kept running through the
            // window to checkpoint).
            if let Some(victim) = slot.lease.take() {
                self.end_lease(victim);
            }
            self.index(at);
            if let Some(key) = reserved.and_then(|req| self.queued_key(req)) {
                if let Some(w) = self.queue.remove(&key) {
                    self.grant(t, &w, at);
                }
            }
        }
        if freed {
            self.grant_queued(t);
            // A reserved grant may have seated a lower-class lease while
            // a stronger request kept waiting; re-arm its preemption so
            // the inversion stays bounded by one eviction window.
            self.repreempt_queued(t);
        }
    }

    /// The spot lease reclamation takes next: largest region first, ties
    /// by lease id.
    fn spot_victim(&self) -> Option<u64> {
        let spot = Reverse(TenantClass::Spot.rank());
        let largest = self.victim_ceiling(spot.0)?;
        self.victims
            .range((spot, largest, 0)..)
            .next()
            .map(|&(_, _, id)| id)
    }

    fn start_reclaim(&mut self, now: SimTime, victim: u64) {
        let Some(region) = self.leases.get(&victim).map(|l| l.at) else {
            return;
        };
        self.start_eviction(now, self.locate(region), None);
        self.reclamations += 1;
        self.push(Decision::Reclaim { victim, at: region });
    }

    /// Automatic reclamation: keep `spot_reserve_permille` of the pool
    /// free or freeing; counts in-flight evictions so one shortfall does
    /// not evict every spot lease at once.
    fn reclaim_if_drained(&mut self, now: SimTime) {
        if self.cfg.spot_reserve_permille == 0 {
            return;
        }
        loop {
            let pool = self.pool_alms;
            if pool == 0 {
                return;
            }
            let freeing = pool - self.busy_alms;
            if freeing * 1000 >= pool * self.cfg.spot_reserve_permille as u64 {
                return;
            }
            let Some(victim) = self.spot_victim() else {
                return;
            };
            self.start_reclaim(now, victim);
        }
    }

    /// Best-fit-decreasing repack of live leases across up boards;
    /// migrates only leases whose assignment changes, in lease-id order.
    /// Regions mid-eviction keep their occupant and reservation.
    fn defrag(&mut self, now: SimTime) {
        // Candidate slots (up, not mid-eviction) in best-fit order, and
        // the leases in them, largest demand first (collected in table
        // order; the sort by demand, then id, fixes it).
        let mut slots: BTreeSet<(u32, u32, u8)> = self.free.clone();
        let mut by_size: Vec<(Reverse<u32>, u64, At)> = Vec::new();
        for l in self.leases.values() {
            let at = self.locate(l.at);
            let slot = self.slot(at);
            if slot.pending.is_none() && self.boards[at.0 as usize].up {
                slots.insert((slot.alms, at.0, at.1));
                by_size.push((Reverse(l.alms), l.id, at));
            }
        }
        by_size.sort_unstable();
        // Each lease takes the smallest fitting slot, in registration
        // order among equals; the ones whose slot changes move, in
        // lease-id order.
        let mut moves: Vec<(u64, At, At)> = Vec::new();
        for (Reverse(alms), id, from) in by_size {
            if let Some(&(sz, b, r)) = slots.range((alms, 0, 0)..).next() {
                slots.remove(&(sz, b, r));
                if (b, r) != from {
                    moves.push((id, from, (b, r)));
                }
            }
        }
        moves.sort_unstable();
        // Two-phase apply: clear every vacated slot before occupying any
        // target, so overlapping move chains (A into B's old slot while B
        // moves on) never wipe a freshly placed lease.
        for &(_, from, _) in &moves {
            self.unindex(from);
            self.slot_mut(from).lease = None;
            self.index(from);
        }
        for (id, from, target) in moves {
            let (from, to) = (self.region_ref(from), self.region_ref(target));
            self.unindex(target);
            self.slot_mut(target).lease = Some(id);
            if let Some(l) = self.leases.get_mut(&id) {
                l.at = to;
                if self.debug_defrag_drop_caps {
                    l.caps = TenantCaps {
                        er_mbps: 0,
                        ltl_credits: 0,
                    };
                }
            }
            self.index(target);
            self.migrations += 1;
            self.push(Decision::Migrate {
                lease: id,
                from,
                to,
            });
        }
        // Consolidation may have opened a fitting region — and may have
        // displaced a small preemptible lease into a large one, so
        // stranded waiters also re-arm preemption.
        self.grant_queued(now);
        self.repreempt_queued(now);
    }
}

/// Total and largest region ALMs of one board.
fn board_capacity(board: &BoardState) -> (u64, u32) {
    board.slots.iter().fold((0, 0), |(total, top), s| {
        (total + s.alms as u64, top.max(s.alms))
    })
}

/// Folds one decision into an FNV-1a hash (shared with the reference
/// scheduler so fingerprints compare across implementations).
pub fn fingerprint_decision(hash: u64, d: &Decision) -> u64 {
    fn region(hash: u64, r: RegionRef) -> u64 {
        let h = fnv1a(hash, &r.board.as_u32().to_le_bytes());
        fnv1a(h, &[r.region])
    }
    match d {
        Decision::Grant {
            req,
            lease,
            at,
            waited_ns,
        } => {
            let h = fnv1a(hash, b"G");
            let h = fnv1a(h, &req.to_le_bytes());
            let h = fnv1a(h, &lease.to_le_bytes());
            let h = region(h, *at);
            fnv1a(h, &waited_ns.to_le_bytes())
        }
        Decision::Queue { req } => fnv1a(fnv1a(hash, b"Q"), &req.to_le_bytes()),
        Decision::Evict {
            victim,
            for_req,
            at,
        } => {
            let h = fnv1a(hash, b"E");
            let h = fnv1a(h, &victim.to_le_bytes());
            let h = fnv1a(h, &for_req.to_le_bytes());
            region(h, *at)
        }
        Decision::Reclaim { victim, at } => {
            let h = fnv1a(hash, b"C");
            let h = fnv1a(h, &victim.to_le_bytes());
            region(h, *at)
        }
        Decision::Migrate { lease, from, to } => {
            let h = fnv1a(hash, b"M");
            let h = fnv1a(h, &lease.to_le_bytes());
            let h = region(h, *from);
            region(h, *to)
        }
        Decision::Reject { req } => fnv1a(fnv1a(hash, b"X"), &req.to_le_bytes()),
        Decision::Release { req, lease } => {
            let h = fnv1a(fnv1a(hash, b"R"), &req.to_le_bytes());
            match lease {
                Some(id) => fnv1a(h, &id.to_le_bytes()),
                None => fnv1a(h, b"-"),
            }
        }
        Decision::BoardDown { board, lost } => {
            let mut h = fnv1a(hash, b"D");
            h = fnv1a(h, &board.as_u32().to_le_bytes());
            for id in lost {
                h = fnv1a(h, &id.to_le_bytes());
            }
            h
        }
        Decision::BoardUp { board } => fnv1a(fnv1a(hash, b"U"), &board.as_u32().to_le_bytes()),
    }
}

impl MetricSource for ElasticScheduler {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        m.counter("grants", self.grants);
        m.counter("preemptions", self.preemptions);
        m.counter("reclamations", self.reclamations);
        m.counter("migrations", self.migrations);
        m.counter("rejects", self.rejects);
        m.counter("lost_leases", self.lost_leases);
        m.gauge("queue_len", self.queue.len() as f64);
        m.gauge("live_leases", self.leases.len() as f64);
        m.gauge(
            "avg_utilization_permille",
            self.avg_utilization_permille() as f64,
        );
        for class in TenantClass::ALL {
            let name = match class {
                TenantClass::Guaranteed => "wait_ns_guaranteed",
                TenantClass::Standard => "wait_ns_standard",
                TenantClass::Spot => "wait_ns_spot",
            };
            m.histogram(name, &self.wait_ns[class.rank() as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> TenantCaps {
        TenantCaps {
            er_mbps: 10_000,
            ltl_credits: 64,
        }
    }

    fn board(h: u16) -> NodeAddr {
        NodeAddr::new(0, 0, h)
    }

    /// Two boards: [10k, 20k] and [30k].
    fn sched() -> ElasticScheduler {
        let mut s = ElasticScheduler::new(ElasticConfig {
            eviction_window: SimDuration::from_millis(100),
            defrag_period: SimDuration::from_secs(1),
            spot_reserve_permille: 0,
        });
        s.add_board(board(1), &[10_000, 20_000]).unwrap();
        s.add_board(board(2), &[30_000]).unwrap();
        s
    }

    fn req(req: u64, class: TenantClass, alms: u32, preemptible: bool) -> LeaseEventKind {
        LeaseEventKind::Request {
            req,
            tenant: TenantId(req as u32),
            class,
            alms,
            preemptible,
            caps: caps(),
        }
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_region() {
        let mut s = sched();
        let d = s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(0, TenantClass::Standard, 9_000, false),
        });
        assert!(matches!(
            d[0],
            Decision::Grant {
                at: RegionRef { region: 0, .. },
                ..
            }
        ));
        // Next 9k request: region 0 taken, best fit is the 20k region.
        let d = s.apply(&LeaseEvent {
            at: SimTime::from_micros(1),
            kind: req(1, TenantClass::Standard, 9_000, false),
        });
        assert!(
            matches!(d[0], Decision::Grant { at, .. } if at.region == 1 && at.board == board(1))
        );
    }

    #[test]
    fn preemption_is_bounded_and_grants_after_window() {
        let mut s = sched();
        // Fill everything with preemptible spot.
        for (i, alms) in [(0u64, 10_000u32), (1, 20_000), (2, 30_000)] {
            let d = s.apply(&LeaseEvent {
                at: SimTime::ZERO,
                kind: req(i, TenantClass::Spot, alms, true),
            });
            assert!(matches!(d[0], Decision::Grant { .. }));
        }
        // Guaranteed 15k arrives: queues, evicts the spot in the 20k
        // region (smallest sufficient; spot beats standard as victim).
        let t0 = SimTime::from_millis(10);
        let d = s.apply(&LeaseEvent {
            at: t0,
            kind: req(3, TenantClass::Guaranteed, 15_000, false),
        });
        assert_eq!(d[0], Decision::Queue { req: 3 });
        assert!(matches!(
            d[1],
            Decision::Evict {
                victim: 1,
                for_req: 3,
                ..
            }
        ));
        // After the eviction window, the grant lands automatically.
        s.advance_to(t0 + SimDuration::from_millis(100));
        let last = s.last_decisions().last().unwrap().clone();
        assert!(matches!(last, Decision::Grant { req: 3, waited_ns, .. }
                if waited_ns == SimDuration::from_millis(100).as_nanos()));
        assert!(s.queued_reqs().is_empty());
    }

    #[test]
    fn guaranteed_is_never_preempted() {
        let mut s = sched();
        for (i, alms) in [(0u64, 10_000u32), (1, 20_000), (2, 30_000)] {
            // `preemptible: true` is ignored for guaranteed.
            s.apply(&LeaseEvent {
                at: SimTime::ZERO,
                kind: req(i, TenantClass::Guaranteed, alms, true),
            });
        }
        let d = s.apply(&LeaseEvent {
            at: SimTime::from_millis(1),
            kind: req(3, TenantClass::Guaranteed, 5_000, false),
        });
        assert_eq!(d, vec![Decision::Queue { req: 3 }], "no eviction");
    }

    #[test]
    fn release_frees_and_backfills_queue() {
        let mut s = sched();
        s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(0, TenantClass::Standard, 25_000, false),
        });
        s.apply(&LeaseEvent {
            at: SimTime::from_micros(1),
            kind: req(1, TenantClass::Standard, 25_000, false),
        });
        assert_eq!(s.queued_reqs(), vec![1]);
        let d = s.apply(&LeaseEvent {
            at: SimTime::from_micros(2),
            kind: LeaseEventKind::Release { req: 0 },
        });
        assert!(matches!(
            d[0],
            Decision::Release {
                req: 0,
                lease: Some(0)
            }
        ));
        assert!(matches!(d[1], Decision::Grant { req: 1, .. }));
    }

    #[test]
    fn board_down_loses_leases_and_board_up_restores_capacity() {
        let mut s = sched();
        s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(0, TenantClass::Standard, 25_000, false),
        });
        let d = s.apply(&LeaseEvent {
            at: SimTime::from_millis(1),
            kind: LeaseEventKind::BoardDown { board: board(2) },
        });
        assert_eq!(
            d[0],
            Decision::BoardDown {
                board: board(2),
                lost: vec![0]
            }
        );
        // 25k no longer fits anywhere while board 2 is down.
        let d = s.apply(&LeaseEvent {
            at: SimTime::from_millis(2),
            kind: req(1, TenantClass::Standard, 25_000, false),
        });
        assert_eq!(d[0], Decision::Reject { req: 1 });
        let d = s.apply(&LeaseEvent {
            at: SimTime::from_millis(3),
            kind: LeaseEventKind::BoardUp { board: board(2) },
        });
        assert_eq!(d[0], Decision::BoardUp { board: board(2) });
    }

    #[test]
    fn defrag_consolidates_and_preserves_leases() {
        let mut s = sched();
        // A 9k lease sits in the 30k region (placed there after the
        // smaller regions fill), then the small-region leases go away —
        // defrag should move it into the 10k region.
        s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(0, TenantClass::Standard, 9_500, false),
        });
        s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(1, TenantClass::Standard, 18_000, false),
        });
        s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(2, TenantClass::Standard, 9_000, false),
        });
        assert_eq!(s.leases[&2].at.board, board(2));
        s.apply(&LeaseEvent {
            at: SimTime::from_millis(1),
            kind: LeaseEventKind::Release { req: 0 },
        });
        let before: Vec<(u64, TenantId, u32, TenantCaps)> = s
            .leases()
            .map(|l| (l.id, l.tenant, l.alms, l.caps))
            .collect();
        s.advance_to(SimTime::from_secs(1));
        let moved = s
            .last_decisions()
            .iter()
            .any(|d| matches!(d, Decision::Migrate { lease: 2, .. }));
        assert!(moved, "defrag migrated the mis-packed lease");
        let after: Vec<(u64, TenantId, u32, TenantCaps)> = s
            .leases()
            .map(|l| (l.id, l.tenant, l.alms, l.caps))
            .collect();
        assert_eq!(before, after, "identity/caps preserved across defrag");
    }

    #[test]
    fn planted_defrag_bug_drops_caps() {
        let mut s = sched();
        s.set_debug_defrag_drop_caps(true);
        s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(0, TenantClass::Standard, 9_500, false),
        });
        s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(1, TenantClass::Standard, 9_000, false),
        });
        s.apply(&LeaseEvent {
            at: SimTime::from_millis(1),
            kind: LeaseEventKind::Release { req: 0 },
        });
        s.advance_to(SimTime::from_secs(1));
        let l = s.leases().next().unwrap();
        assert_eq!(l.caps.er_mbps, 0, "bug visibly corrupts caps");
    }

    #[test]
    fn spot_reserve_reclaims_largest_spot_first() {
        let mut s = ElasticScheduler::new(ElasticConfig {
            eviction_window: SimDuration::from_millis(100),
            defrag_period: SimDuration::ZERO,
            spot_reserve_permille: 300,
        });
        s.add_board(board(1), &[10_000, 20_000, 30_000]).unwrap();
        s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(0, TenantClass::Spot, 28_000, true),
        });
        s.apply(&LeaseEvent {
            at: SimTime::ZERO,
            kind: req(1, TenantClass::Spot, 18_000, true),
        });
        // Free share now 10k/60k < 30% → reclaim the largest spot.
        let reclaimed = s
            .last_decisions()
            .iter()
            .any(|d| matches!(d, Decision::Reclaim { victim: 0, .. }));
        assert!(reclaimed, "decisions: {:?}", s.last_decisions());
    }

    #[test]
    fn identical_traces_produce_identical_fingerprints() {
        let run = || {
            let mut s = sched();
            for i in 0..20u64 {
                s.apply(&LeaseEvent {
                    at: SimTime::from_millis(i * 7),
                    kind: req(
                        i,
                        TenantClass::ALL[(i % 3) as usize],
                        5_000 + (i as u32 * 1_733) % 24_000,
                        i % 2 == 0,
                    ),
                });
                if i % 3 == 2 {
                    s.apply(&LeaseEvent {
                        at: SimTime::from_millis(i * 7 + 3),
                        kind: LeaseEventKind::Release { req: i - 2 },
                    });
                }
            }
            s.advance_to(SimTime::from_secs(2));
            (s.fingerprint(), s.decision_count())
        };
        assert_eq!(run(), run());
    }
}
