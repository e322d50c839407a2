/**
 * @file
 * Deterministic mutation-loop fuzz gate for the ingestion boundary
 * (docs/ROBUSTNESS.md, "Ingestion boundary").
 *
 * Seeds are the checked-in corpus (tests/corpus/ingest); each
 * iteration draws a seed document and a mutation (byte flip, truncate,
 * insert, chunk duplication, cross-document splice) from an Rng stream
 * derived from the iteration index, pushes the mutant through
 * parseJob -> validateSchedule and through the DocumentFramer with
 * randomized chunk sizes, and requires the boundary's invariant:
 * *every* outcome is Ok or a distinct structured ErrorCode — never a
 * crash, never an exception, never a hang.
 *
 * The same chunks also reach a RequestFrontEnd over a calibrated
 * single-qubit ExecutionService (IngestLimits maxShots 16 and maxTime
 * 1024, 8-shot chunks), which then run()s to the end. The front door must
 * not throw, must admit no request for more shots than maxShots, must
 * end every Accepted request with exactly one terminal event, and a
 * Completed request's counts must sum to its requested shots, as must
 * its shotsCompleted. CI runs this under ASan/LSan so memory errors
 * and leaks fail the gate too.
 *
 * Usage: fuzz_ingest [iterations] [base-seed]
 * On a violation the offending payload is written to
 * ingest-repro-<iteration>.json in the working directory (commit it
 * back to tests/corpus/ingest/invalid once minimized) and the exit
 * code is 1.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "compile/compiler.h"
#include "device/calibration.h"
#include "device/schedule_validation.h"
#include "ingest/frontend.h"
#include "ingest/json.h"
#include "ingest/openpulse.h"

namespace fs = std::filesystem;
using namespace qpulse;
using namespace qpulse::ingest;

namespace {

std::vector<std::string>
loadCorpus()
{
    std::vector<std::string> seeds;
    std::vector<fs::path> files;
    for (const char *subdir : {"valid", "invalid"})
        for (const auto &entry : fs::directory_iterator(
                 fs::path(QPULSE_INGEST_CORPUS_DIR) / subdir))
            if (entry.path().extension() == ".json")
                files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const fs::path &path : files) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        seeds.push_back(os.str());
    }
    return seeds;
}

std::string
mutate(const std::vector<std::string> &seeds, Rng &rng)
{
    std::string doc = seeds[rng.uniformInt(seeds.size())];
    const int mutations = 1 + static_cast<int>(rng.uniformInt(4));
    for (int m = 0; m < mutations; ++m) {
        if (doc.empty())
            doc.push_back('{');
        switch (rng.uniformInt(6)) {
        case 0: { // Byte flip.
            const std::size_t at = rng.uniformInt(doc.size());
            doc[at] = static_cast<char>(
                static_cast<unsigned char>(doc[at]) ^
                static_cast<unsigned char>(1 + rng.uniformInt(255)));
            break;
        }
        case 1: // Truncate.
            doc.resize(rng.uniformInt(doc.size() + 1));
            break;
        case 2: { // Insert a random interesting byte.
            static const char kBytes[] = "{}[]\",:\\\x00\x7f\xff"
                                         "e-+.0123456789u";
            const std::size_t at = rng.uniformInt(doc.size() + 1);
            doc.insert(doc.begin() + static_cast<long>(at),
                       kBytes[rng.uniformInt(sizeof kBytes - 1)]);
            break;
        }
        case 3: { // Duplicate a chunk (dup keys, repeated values).
            const std::size_t start = rng.uniformInt(doc.size());
            const std::size_t len = std::min(
                doc.size() - start, 1 + rng.uniformInt(32));
            doc.insert(start, doc.substr(start, len));
            break;
        }
        case 4: { // Splice a window from another seed document.
            const std::string &other =
                seeds[rng.uniformInt(seeds.size())];
            if (other.empty())
                break;
            const std::size_t from = rng.uniformInt(other.size());
            const std::size_t len = std::min(
                other.size() - from, 1 + rng.uniformInt(64));
            const std::size_t at = rng.uniformInt(doc.size() + 1);
            doc.insert(at, other.substr(from, len));
            break;
        }
        default: // Nest the document one level deeper.
            if (rng.uniformInt(2) != 0u) {
                doc.insert(0, 1, '[');
                doc.push_back(']');
            } else {
                doc.insert(0, "{\"w\": ");
                doc.push_back('}');
            }
            break;
        }
    }
    return doc;
}

/**
 * The front door the mutants reach: a calibrated single-qubit service
 * with budgets small enough that an admitted mutant runs in
 * milliseconds. One service serves every iteration; each iteration
 * gets its own RequestFrontEnd.
 */
struct FrontDoor
{
    FrontDoor()
        : config(almadenLineConfig(1)),
          service(makeCalibratedBackend(config),
                  PulseSimulator(Calibrator(config).qubitModel(0)))
    {
        policy.limits.maxShots = 16;
        policy.limits.maxTime = 1024;
        policy.streamBatchShots = 8;
        policy.budget = ChannelBudget::fromConfig(config);
    }

    BackendConfig config;
    ExecutionService service;
    FrontEndPolicy policy;
};

/**
 * The first broken front-door invariant in one iteration's events, or
 * "" when none is: every Accepted request asks for at most
 * `max_shots` shots and ends in exactly one terminal event (Completed,
 * Failed or Disconnected), and a Completed one carries counts that sum
 * to its shotsRequested and its shotsCompleted.
 */
std::string
frontDoorViolation(const std::vector<StreamEvent> &events, long max_shots)
{
    std::map<std::uint64_t, int> terminals; // Accepted -> terminal events.
    for (const StreamEvent &e : events) {
        const std::string request =
            "request " + std::to_string(e.request);
        if (e.kind == StreamEventKind::Accepted) {
            if (e.shotsRequested > max_shots)
                return request + ": accepted with shotsRequested " +
                       std::to_string(e.shotsRequested) +
                       " past maxShots " + std::to_string(max_shots);
            terminals.emplace(e.request, 0);
            continue;
        }
        if (e.kind != StreamEventKind::Completed &&
            e.kind != StreamEventKind::Failed &&
            e.kind != StreamEventKind::Disconnected)
            continue;
        const auto it = terminals.find(e.request);
        if (it == terminals.end())
            return request + ": " + streamEventKindName(e.kind) +
                   " without Accepted";
        if (++it->second > 1)
            return request + ": a second terminal event (" +
                   streamEventKindName(e.kind) + ")";
        if (e.kind == StreamEventKind::Completed) {
            long total = 0;
            for (const long c : e.counts)
                total += c;
            if (total != e.shotsRequested ||
                e.shotsCompleted != e.shotsRequested)
                return request + ": completed with counts summing to " +
                       std::to_string(total) + ", shotsCompleted " +
                       std::to_string(e.shotsCompleted) +
                       ", shotsRequested " +
                       std::to_string(e.shotsRequested);
        }
    }
    for (const auto &[id, count] : terminals)
        if (count == 0)
            return "request " + std::to_string(id) +
                   ": accepted but never terminated";
    return "";
}

void
writeRepro(std::uint64_t iteration, const std::string &payload)
{
    const std::string name =
        "ingest-repro-" + std::to_string(iteration) + ".json";
    std::ofstream out(name, std::ios::binary);
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    std::fprintf(stderr,
                 "fuzz_ingest: repro written to %s (commit the "
                 "minimized form to tests/corpus/ingest/invalid)\n",
                 name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t iterations =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
    const std::uint64_t base =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

    const std::vector<std::string> seeds = loadCorpus();
    if (seeds.empty()) {
        std::fprintf(stderr, "fuzz_ingest: empty corpus at %s\n",
                     QPULSE_INGEST_CORPUS_DIR);
        return 1;
    }

    ChannelBudget budget;
    budget.driveChannels = 2;
    budget.controlChannels = 1;
    budget.measureChannels = 1;
    budget.acquireChannels = 1;

    FrontDoor door;
    std::uint64_t parsedOk = 0;
    std::uint64_t rejected = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        Rng rng(Rng::deriveSeed(base, i));
        const std::string doc = mutate(seeds, rng);
        try {
            // The full defensive pipeline must return a structured
            // Status, whatever the bytes are.
            IngestedJob job;
            const Status status =
                parseJob(doc, IngestLimits{}, job);
            if (status.ok()) {
                ++parsedOk;
                const Status gate =
                    validateSchedule(job.schedule, budget);
                (void)gate; // Either outcome is fine; no crash is not.
            } else {
                ++rejected;
                if (status.message().find(" at byte ") ==
                    std::string::npos) {
                    std::fprintf(stderr,
                                 "fuzz_ingest: iteration %llu: "
                                 "rejection without location "
                                 "context: %s\n",
                                 static_cast<unsigned long long>(i),
                                 status.toString().c_str());
                    writeRepro(i, doc);
                    return 1;
                }
            }

            // The framer must survive the same bytes in arbitrary
            // chunkings without losing the byte budget invariant, and
            // the front door must stream whatever it admits from them.
            DocumentFramer framer;
            RequestFrontEnd front(door.service, door.policy);
            std::vector<StreamEvent> events;
            front.setEventSink(
                [&](const StreamEvent &e) { events.push_back(e); });
            const int conn = front.open();
            std::vector<std::string> frames;
            std::size_t cursor = 0;
            while (cursor < doc.size()) {
                const std::size_t take = std::min(
                    doc.size() - cursor,
                    static_cast<std::size_t>(
                        1 + rng.uniformInt(97)));
                const std::string_view slice =
                    std::string_view(doc).substr(cursor, take);
                framer.feed(slice, frames);
                front.feed(conn, slice);
                cursor += take;
            }
            std::string trailing;
            if (framer.flush(trailing))
                frames.push_back(std::move(trailing));
            for (const std::string &frame : frames) {
                IngestedJob reframed;
                (void)parseJob(frame, IngestLimits{}, reframed);
            }
            front.finish(conn);
            front.run();
            const std::string broken =
                frontDoorViolation(events, door.policy.limits.maxShots);
            if (!broken.empty()) {
                std::fprintf(stderr,
                             "fuzz_ingest: iteration %llu: front "
                             "door: %s\n",
                             static_cast<unsigned long long>(i),
                             broken.c_str());
                writeRepro(i, doc);
                return 1;
            }
            admitted += static_cast<std::uint64_t>(
                front.stats().accepted);
            completed += static_cast<std::uint64_t>(
                front.stats().completed);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "fuzz_ingest: iteration %llu threw: %s\n",
                         static_cast<unsigned long long>(i),
                         e.what());
            writeRepro(i, doc);
            return 1;
        } catch (...) {
            std::fprintf(
                stderr,
                "fuzz_ingest: iteration %llu threw a non-standard "
                "exception\n",
                static_cast<unsigned long long>(i));
            writeRepro(i, doc);
            return 1;
        }
    }

    std::printf("fuzz_ingest: %llu iterations over %zu corpus seeds: "
                "%llu parsed ok, %llu structured rejections, zero "
                "crashes; front door admitted %llu requests, %llu "
                "completed\n",
                static_cast<unsigned long long>(iterations),
                seeds.size(),
                static_cast<unsigned long long>(parsedOk),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(admitted),
                static_cast<unsigned long long>(completed));
    return 0;
}
