/**
 * @file
 * The long-lived simulation service: a SimServer daemon that keeps
 * one Session warm across requests from many concurrent clients.
 *
 * Every CLI invocation used to pay full process startup -- registry
 * construction, reloading the persistent DiskResultCache -- and the
 * process pool pays it per SWEEP: it spawns its workers for one batch
 * and reaps them afterwards (the committed trajectory shows that
 * overhead model losing: pool_sweep slows DOWN as workers grow on
 * small batches).  The server inverts both costs:
 *
 *  - registries and the result store are built once and stay warm;
 *    a repeated sweep or analysis from any client performs zero
 *    simulations and zero analyses;
 *  - worker processes are spawned ONCE at startup -- the same exec'd
 *    pipe workers the process pool uses (sim/pool's WorkerSet) --
 *    and fed job batches over pipes speaking the same wire frames
 *    as the socket (sim/wire);
 *  - each client connection gets a bounded request queue, and a
 *    single dispatcher drains the queues round-robin, so one greedy
 *    client cannot starve the rest.
 *
 * Results are bit-for-bit identical to a local Session::runBatch of
 * the same jobs: execution is the same deterministic Session code,
 * and every double crosses the wire as its raw bit pattern.
 */

#ifndef VEGETA_SIM_SERVER_HPP
#define VEGETA_SIM_SERVER_HPP

#include <memory>
#include <string>

#include "sim/job.hpp"

namespace vegeta::sim {

/** How a SimServer listens and executes. */
struct ServerOptions
{
    /** Unix-domain socket path ("" = listen on TCP instead). */
    std::string socketPath;

    /** TCP port on 127.0.0.1 (0 = ephemeral; see SimServer::port). */
    u32 port = 0;

    /** Listen on TCP even when port is 0 (ephemeral). */
    bool useTcp = false;

    /**
     * Persistent worker processes, exec'd at start() (this binary's
     * hidden `worker` subcommand) and fed over pipes.  0 executes
     * batches in-process on the server's own warm Session.
     */
    u32 serviceWorkers = 0;

    /** runBatch threads (in-process mode) / per worker.  0 = auto. */
    u32 threads = 0;

    /** Pending batches allowed per client before its reader blocks
     *  (socket backpressure); must be >= 1. */
    u32 queueDepth = 4;

    /** Persistent result-store directory, opened by the server's
     *  own session ("" = a memory-only store); workers never open
     *  it. */
    std::string cacheDir;

    /** Handshake/read timeout for client sockets, milliseconds. */
    int clientTimeoutMs = 10'000;
};

/** Aggregate service counters (monotonic over the server's life). */
struct ServerStats
{
    u64 connections = 0;
    u64 batches = 0;       ///< served (answered with results)
    u64 jobs = 0;          ///< jobs of served batches
    u64 failedBatches = 0; ///< answered with an error frame
    u64 failedJobs = 0;    ///< jobs of failed batches
    u64 simulationsPerformed = 0;
    u64 analysesPerformed = 0;
    u64 protocolErrors = 0;
};

/** The daemon: accepts framed job batches, answers framed results. */
class SimServer
{
  public:
    explicit SimServer(ServerOptions options);

    /** Stops and reaps everything still running. */
    ~SimServer();

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /**
     * Bind the socket, spawn the persistent workers, and start the
     * accept/dispatch threads.  False with a one-line reason on
     * failure.
     */
    bool start(std::string *error);

    /**
     * Shut down cleanly: stop accepting, close client connections,
     * join every thread, close the worker pipes (workers exit on
     * EOF) and reap every worker process.  Idempotent.
     */
    void stop();

    bool running() const;

    /** The connect address ("unix:PATH" or "tcp:127.0.0.1:PORT"). */
    std::string address() const;

    /** The bound TCP port (resolves port 0; 0 for unix sockets). */
    u32 port() const;

    ServerStats stats() const;

    /**
     * CLI entry: start(), serve until SIGTERM/SIGINT, stop(), return
     * a process exit code.  Prints one line on start and shutdown to
     * stderr.
     */
    static int serveMain(const ServerOptions &options);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_SERVER_HPP
