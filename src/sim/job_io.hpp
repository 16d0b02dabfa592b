/**
 * @file
 * Versioned job batches and worker outputs: the payloads of the wire
 * `batch` and `results` frames.
 *
 * A job batch serializes every `Job` field, so a worker reconstructs
 * exactly the work the parent described (same canonical field
 * spellings as jobKey); a worker output carries results keyed by
 * canonical job key, with doubles round-tripped through raw bit
 * patterns so a merged pooled batch is bit-for-bit identical to a
 * single-process one.  The same blocks travel over the service
 * socket and over the worker pipes (sim/wire, sim/pool).
 *
 * Both formats are corruption-checked end to end: a version header, a
 * per-record checksum, and a checksummed `end` footer carrying the
 * record count.  A truncated or tampered block decodes to a clean
 * error (the executor fails that worker), never to missing or wrong
 * results.
 */

#ifndef VEGETA_SIM_JOB_IO_HPP
#define VEGETA_SIM_JOB_IO_HPP

#include <optional>
#include <string>
#include <vector>

#include "sim/job.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

/** Version header of an encoded job batch. */
const char *jobFileHeader();

/** Version header of an encoded worker output. */
const char *resultFileHeader();

/** One job as a checksummed record line (kind-tagged). */
std::string serializeJob(const Job &job);

/** Parse a serializeJob line (nullopt on any corruption). */
std::optional<Job> parseJob(const std::string &line);

/**
 * A job batch as one self-delimiting text block: the job-file header,
 * one record per job, and the checksummed end-count footer -- the
 * payload of a wire `batch` frame.
 */
std::string encodeJobBatch(const std::vector<Job> &jobs);

/**
 * Decode an encodeJobBatch block.  Any defect -- wrong header,
 * corrupt or truncated record, bad footer count -- yields nullopt
 * with a one-line reason in @p error.
 */
std::optional<std::vector<Job>>
decodeJobBatch(const std::string &text, std::string *error);

/** What one worker hands back to the parent. */
struct WorkerOutput
{
    /** Canonical job key -> result, in batch order. */
    JobRecords results;

    /** Core-model simulations the worker actually performed. */
    u64 simulationsPerformed = 0;

    /** Analytical backends the worker actually evaluated. */
    u64 analysesPerformed = 0;

    /**
     * The worker's cumulative telemetry snapshot at encode time
     * (v2 `metric` records).  The pool parent absorbs these into its
     * own registry for merged post-run reports; the service replaces
     * its per-worker copy on every results frame.  Always empty in a
     * `VEGETA_NO_TELEMETRY` build -- the records stay decodable, so
     * the two builds read each other's outputs.
     */
    std::vector<telemetry::MetricRecord> metrics;
};

/**
 * A worker's output as one self-delimiting text block (result-file
 * header, key+result records, counter footer) -- the payload of a
 * wire `results` frame.
 */
std::string encodeWorkerOutput(const WorkerOutput &output);

/** Decode an encodeWorkerOutput block (error contract as above). */
std::optional<WorkerOutput>
decodeWorkerOutput(const std::string &text, std::string *error);

} // namespace vegeta::sim

#endif // VEGETA_SIM_JOB_IO_HPP
