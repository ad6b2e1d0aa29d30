/**
 * @file
 * Multi-process scale-out for `maestro serve --workers N`.
 *
 * N shared-nothing worker processes each bind their own listening
 * socket with SO_REUSEPORT on the same port; the kernel load-
 * balances incoming connections across them. Workers share NOTHING
 * — each owns its pipeline, caches, job store, and thread pool — so
 * there is no cross-process locking and scaling is bounded only by
 * cores (proven by bench/serve_speed + BENCH_serve.json). Responses
 * stay byte-identical across processes because every response body
 * is a pure function of the request.
 *
 * The parent is a supervisor: it forks the workers, forwards
 * SIGTERM/SIGINT to them (graceful drain propagates to every
 * child), and reaps them, exiting 0 only when every worker drained
 * cleanly. If a worker dies unexpectedly the supervisor tears the
 * group down and reports failure — half-capacity serving is an
 * outage that monitoring must see.
 *
 * Ephemeral ports compose with SO_REUSEPORT via a placeholder
 * socket: the parent binds port 0 first (never listening, so it
 * receives no connections), reads back the chosen port, and keeps
 * the socket open so every child binds the same resolved port.
 *
 * Observability crosses the process boundary through ONE shared
 * metrics segment (obs::SharedMetrics) the supervisor mmaps before
 * forking: each worker records into its own lane, so GET /metrics
 * on ANY worker renders identical fleet-wide totals (worker="all" =
 * the lane sum) with per-worker breakdowns. `--status-port` adds a
 * supervisor-side HTTP listener serving the same fleet view
 * (/healthz /metrics /stats /events) without consuming a worker
 * connection slot. Workers sharing an --access-log path coordinate
 * through O_APPEND whole-line writes; the supervisor logs worker
 * lifecycle lines into the same stream with "worker":-1.
 */

#ifndef MAESTRO_SERVE_WORKERS_HH
#define MAESTRO_SERVE_WORKERS_HH

#include <sys/types.h>

#include "src/serve/server.hh"

namespace maestro
{
namespace serve
{

/**
 * Runs one server process: starts an AnalysisServer on `options`,
 * wires SIGTERM/SIGINT to its graceful drain, announces it on stderr,
 * serves until stopped, and reports the drain. `worker` picks a
 * fleet worker's lines ("worker PID listening on http://HOST:PORT")
 * over the single-process ones ("listening on http://HOST:PORT (N
 * workers, ...)").
 *
 * @throws Error when the address cannot be bound.
 */
void runServer(const ServeOptions &options, bool worker);

/**
 * Resolves `options.port` for a SO_REUSEPORT worker group.
 *
 * Binds a placeholder socket (SO_REUSEPORT, never listening) to the
 * requested port; when the port was 0, writes the kernel-chosen
 * port back into `options`. The caller must keep the returned fd
 * open while workers bind (and close it afterwards).
 *
 * @return The placeholder socket fd.
 * @throws Error when the address cannot be bound.
 */
int openPortPlaceholder(ServeOptions &options);

/**
 * Forks one worker process serving `options` (reuse_port forced on).
 *
 * The child installs SIGTERM/SIGINT handlers wired to a graceful
 * drain, serves until stopped, and exits 0 — it NEVER returns. The
 * parent returns the child pid (negative on fork failure).
 */
pid_t spawnWorker(const ServeOptions &options);

/**
 * Runs an N-process SO_REUSEPORT worker group until terminated.
 *
 * Creates the shared metrics segment (one lane per worker), forks
 * `workers` children with their lane assignments, forwards
 * SIGTERM/SIGINT to all of them, and waits. With `status_port` >= 0
 * the supervisor also serves GET /healthz, /metrics, /stats, and
 * /events on that port (0 = ephemeral) — the fleet view without
 * touching any worker. Returns the aggregate exit code: 0 when
 * every worker exited cleanly after a requested shutdown, 1
 * otherwise.
 */
int runWorkers(ServeOptions options, std::size_t workers,
               int status_port = -1);

} // namespace serve
} // namespace maestro

#endif // MAESTRO_SERVE_WORKERS_HH
