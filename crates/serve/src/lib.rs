//! `adaptic-serve` — the multi-tenant serving plane in front of the
//! adaptive runtime.
//!
//! The runtime below this crate is a library: [`adaptic::KernelManager`]
//! makes one launch adaptive and fault-tolerant, [`adaptic::fleet::Fleet`]
//! spreads launches across unlike devices. This crate is the piece that
//! protects that machinery **from its clients**: long-lived, in-process,
//! thread-based (std threads + channels — no async runtime), accepting
//! compile-and-run requests from many concurrent tenants and keeping
//! goodput graceful under overload instead of collapsing.
//!
//! The five mechanisms, in request order:
//!
//! 1. **Admission control** ([`Server::submit`]): a per-tenant
//!    [`TokenBucket`] quota plus a global concurrency limit (the worker
//!    pool) and bounded queues. Refusals are typed
//!    ([`RejectReason::QuotaExhausted`] / [`RejectReason::QueueFull`] /
//!    [`RejectReason::DeadlineInfeasible`]) — never silent queuing.
//! 2. **Bounded queues with shedding**: FIFO per tenant, drained
//!    weighted-fair into the tenant's fleet; under pressure the queue
//!    sheds entries whose deadline already passed before refusing new
//!    work, and a dequeued request past its deadline is shed rather than
//!    run ([`ShedReason::DeadlinePassed`]).
//! 3. **Deadline propagation**: a request deadline caps the retry
//!    watchdog (`RetryPolicy::deadline_us`) so no launch retries past its
//!    budget, and admission refuses up front when
//!    `corrected_cost + backlog_us > remaining_budget` on every device.
//! 4. **Per-tenant resilience isolation**: each tenant's
//!    [`TenantPolicy`] builds private managers — its own breakers,
//!    quarantine thresholds, retry budgets, learned state — over
//!    *shared* device backlog ledgers. Identical `SampledExec` launches
//!    coalesce across tenants onto one in-flight simulation
//!    (single-flight, like `gpu_sim::ShardedLaunchCache`), and telemetry
//!    still bills each tenant ([`TelemetrySnapshot::coalesced`]).
//! 5. **Graceful drain** ([`Server::shutdown`]): admission closes,
//!    queues drain to a deadline, whatever remains is shed with
//!    [`ShedReason::Draining`] and reported in the [`DrainReport`].
//!
//! Observability: [`Server::tenant_telemetry`] exports one
//! [`TelemetrySnapshot`] per tenant (its fleet rollup merged with its own
//! serving-plane counters, rows of the same counter table) and
//! [`Server::rollup`] folds them with
//! [`TelemetrySnapshot::fleet_rollup`] — a coalesced launch counts once
//! in `launches`, every participant once in `admitted`.
//!
//! [`TelemetrySnapshot`]: adaptic::telemetry::TelemetrySnapshot
//! [`TelemetrySnapshot::coalesced`]: adaptic::telemetry::TelemetrySnapshot::coalesced
//! [`TelemetrySnapshot::fleet_rollup`]: adaptic::telemetry::TelemetrySnapshot::fleet_rollup

pub mod server;
pub mod tenant;

pub use server::{
    Completion, DrainReport, Outcome, RejectReason, Request, Server, ServerConfig, ShedReason,
    Ticket,
};
pub use tenant::{TenantPolicy, TokenBucket};
