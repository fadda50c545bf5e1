#include "serve/server.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "base/logging.h"
#include "core/synthesis.h"
#include "obs/obs.h"
#include "serve/fingerprint.h"

namespace owl::serve
{

Server::Server(const ServerOptions &opts)
    : opts_(opts), cache_(opts.cacheBytes), pool_(opts.poolSlots),
      queue_(opts.queueCap > 0 ? opts.queueCap : 1),
      workers_(opts.sessions > 0 ? opts.sessions : 1)
{
    int n = opts_.sessions > 0 ? opts_.sessions : 1;
    opts_.sessions = n;
    // Pre-register the serve counter set so exports always carry the
    // full family (a counter that stayed 0 still shows up, and
    // schema checks can require its presence).
    for (const char *name :
         {"serve.requests", "serve.requests_errored",
          "serve.instr_queries", "serve.spans_abandoned",
          "serve.queue.rejected", "serve.cache.hits",
          "serve.cache.misses", "serve.cache.insertions",
          "serve.cache.evictions", "serve.cache.bytes",
          "serve.sessions.created", "serve.sessions.reused"})
        obs::Registry::instance().counter(name);
    loops_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++)
        loops_.push_back(workers_.submit([this, i] { sessionLoop(i); }));
}

Server::~Server() { shutdown(); }

void
Server::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(activeMu_);
        if (down_)
            return;
        down_ = true;
    }
    queue_.close();
    {
        // Cooperatively cancel whatever the sessions are solving so
        // the loops wind down promptly instead of finishing long
        // CEGIS runs.
        std::lock_guard<std::mutex> lock(activeMu_);
        for (exec::CancelToken &t : active_)
            t.cancel();
    }
    // Plain get(), NOT workers_.waitFor(): a helping join could
    // inline-execute a session loop on this thread and block in
    // queue_.pop(). The loops exit promptly once the queue closes.
    for (auto &f : loops_) {
        if (f.valid())
            f.get();
    }
    loops_.clear();
}

std::future<JobResult>
Server::submit(JobRequest req)
{
    Item item;
    item.req = std::move(req);
    std::future<JobResult> fut = item.promise.get_future();
    if (!queue_.push(std::move(item)))
        throw std::runtime_error("serve: queue closed");
    return fut;
}

bool
Server::trySubmit(JobRequest req, std::future<JobResult> *out)
{
    Item item;
    item.req = std::move(req);
    std::future<JobResult> fut = item.promise.get_future();
    if (!queue_.tryPush(std::move(item))) {
        OWL_COUNTER_INC("serve.queue.rejected");
        return false;
    }
    if (out)
        *out = std::move(fut);
    return true;
}

std::vector<JobResult>
Server::runBatch(std::vector<JobRequest> jobs)
{
    std::vector<std::future<JobResult>> futures;
    futures.reserve(jobs.size());
    for (JobRequest &job : jobs)
        futures.push_back(submit(std::move(job)));
    std::vector<JobResult> results;
    results.reserve(futures.size());
    for (auto &f : futures)
        results.push_back(f.get());
    return results;
}

void
Server::sessionLoop(int idx)
{
    obs::setLaneName("serve-session-" + std::to_string(idx));
    while (auto item = queue_.pop()) {
        JobResult res;
        // The promise must be satisfied on every path, including a
        // throw out of processJob's own error handling.
        try {
            res = processJob(item->req);
        } catch (const std::exception &e) {
            res.id = item->req.id;
            res.design = item->req.design;
            res.status = "error";
            res.error = e.what();
        }
        item->promise.set_value(std::move(res));
    }
}

JobResult
Server::processJob(const JobRequest &req)
{
    auto t0 = std::chrono::steady_clock::now();
    JobResult res;
    res.id = req.id;
    res.design = req.design;

    // Per-request budget + cancellation. Deadline set before the
    // token is shared (copies land in active_ and in CDCL).
    exec::CancelToken token;
    int64_t budget_ms =
        req.budgetMs > 0 ? req.budgetMs : opts_.defaultBudgetMs;
    if (budget_ms > 0)
        token.setDeadline(t0 + std::chrono::milliseconds(budget_ms));
    std::list<exec::CancelToken>::iterator active_it;
    {
        std::lock_guard<std::mutex> lock(activeMu_);
        active_it = active_.insert(active_.end(), token);
    }

    // Per-request observability: own span tree + counter deltas, no
    // cross-request leakage (the scope's sink is thread-local and the
    // whole job runs on this session's thread).
    obs::RequestScope scope("serve.request");
    scope.attr("design", req.design);
    if (!req.id.empty())
        scope.attr("id", req.id);
    OWL_COUNTER_INC("serve.requests");

    try {
        const designs::CaseStudyMaker *maker =
            designs::findCaseStudyMaker(req.design);
        if (!maker) {
            res.status = "bad-request";
            res.error = "unknown design \"" + req.design + "\"";
        } else {
            // Request-local design objects: synthesis mutates the
            // sketch (control union), so each request gets its own.
            designs::CaseStudy cs = (*maker)();
            uint64_t dfp = designFingerprint(cs.sketch, cs.spec,
                                             cs.alpha);
            scope.attr("design_fp",
                       static_cast<int64_t>(dfp));
            auto binding = pool_.bind(dfp, *maker);

            synth::CegisOptions copts;
            static_cast<smt::SolverConfig &>(copts) = req;
            copts.maxIterations = req.maxIterations;
            copts.cancelFlag = token.flag();
            if (budget_ms > 0)
                copts.deadline =
                    t0 + std::chrono::milliseconds(budget_ms);
            copts.sessionPool = binding.get();

            synth::InstrSynthesizer synth(cs.sketch, cs.spec,
                                          cs.alpha);
            for (const auto &instr : cs.spec.instrs()) {
                if (copts.expired()) {
                    res.status = "timeout";
                    res.failedInstr = instr->name();
                    break;
                }
                OWL_COUNTER_INC("serve.instr_queries");
                std::string key = cacheKey(
                    dfp, instrFingerprint(cs.spec, *instr));
                if (auto cached = cache_.lookup(key)) {
                    res.holes.emplace_back(instr->name(),
                                           std::move(*cached));
                    continue;
                }
                // Cache miss: run CEGIS. No pin — matches the
                // parallel strategy's semantics, so results are
                // bit-identical whatever order requests arrive in
                // (DESIGN.md §11).
                synth::CegisResult r =
                    synth.synthesize(*instr, nullptr, copts);
                res.iterations += r.iterations;
                if (r.status != synth::SynthStatus::Ok) {
                    res.status = synth::synthStatusName(r.status);
                    res.failedInstr = instr->name();
                    break;
                }
                cache_.insert(key, r.holes);
                res.holes.emplace_back(instr->name(),
                                       std::move(r.holes));
            }
            if (res.ok()) {
                synth::applyControlUnion(cs.sketch, cs.spec, cs.alpha,
                                         res.holes);
                if (req.verify) {
                    std::string failed;
                    synth::SynthStatus v = synth::verifyDesign(
                        cs.sketch, cs.spec, cs.alpha, &failed, copts);
                    if (v != synth::SynthStatus::Ok) {
                        // An exhausted budget is not a wrong design.
                        res.status = v == synth::SynthStatus::Timeout
                                         ? "timeout"
                                         : "verify-failed";
                        res.failedInstr = failed;
                    }
                }
            }
        }
    } catch (const std::exception &e) {
        // owl_panic/owl_fatal surface here; the session survives and
        // the next request starts from a clean span stack (any spans
        // the unwind abandoned are force-closed below).
        res.status = "error";
        res.error = e.what();
        OWL_COUNTER_INC("serve.requests_errored");
    }

    // Satellite: a panicking or cancelled request must not poison the
    // next request's export. Close leftovers before reading deltas.
    res.spansAbandoned = scope.forceCloseAbandoned();
    if (res.spansAbandoned > 0)
        OWL_COUNTER_ADD("serve.spans_abandoned", res.spansAbandoned);

    res.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    res.cacheHits = scope.counterDelta("serve.cache.hits");
    res.cacheMisses = scope.counterDelta("serve.cache.misses");
    res.sessionsReused = scope.counterDelta("serve.sessions.reused");
    res.sessionsCreated = scope.counterDelta("serve.sessions.created");
    scope.attr("status", res.status);

    if (!req.statsJson.empty()) {
        if (!scope.writeJsonFile(req.statsJson,
                                 {{"tool", "owl-serve"},
                                  {"design", req.design},
                                  {"id", req.id},
                                  {"status", res.status}})) {
            fprintf(stderr,
                    "[owl:serve] failed to write per-request stats "
                    "to %s\n",
                    req.statsJson.c_str());
        }
    }

    {
        std::lock_guard<std::mutex> lock(activeMu_);
        active_.erase(active_it);
    }
    return res;
}

} // namespace owl::serve
