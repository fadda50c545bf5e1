/**
 * @file
 * Tests for owl::serve — the long-lived synthesis service: the
 * content-addressed result cache (accounting, LRU eviction,
 * cached-vs-fresh bit-identity), design/instruction fingerprints, the
 * warm session pool, the JSON request/result wire format, per-request
 * budgets, concurrent batch behavior (the TSan target), and the
 * NDJSON unix-socket front end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/synthesis.h"
#include "designs/registry.h"
#include "obs/obs.h"
#include "serve/cache.h"
#include "serve/fingerprint.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/session_pool.h"
#include "serve/socket.h"

using namespace owl;
using namespace owl::serve;

namespace
{

synth::HoleValues
holes(std::initializer_list<std::pair<const char *, uint64_t>> vals)
{
    synth::HoleValues hv;
    for (const auto &[name, v] : vals)
        hv[name] = BitVec(8, v);
    return hv;
}

/** Holes as a printable map so mismatches show full assignments. */
std::string
holesString(const synth::PerInstrResults &results)
{
    std::string out;
    for (const auto &[instr, hv] : results) {
        out += instr + ":";
        for (const auto &[name, value] : hv)
            out += " " + name + "=" + value.toString();
        out += "\n";
    }
    return out;
}

JobRequest
job(const std::string &design)
{
    JobRequest r;
    r.design = design;
    return r;
}

} // namespace

// ---- result cache ------------------------------------------------------

TEST(ServeCache, HitMissAccounting)
{
    ResultCache cache;
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.insert("k1", holes({{"a", 3}}));
    auto hit = cache.lookup("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ((*hit)["a"], BitVec(8, 3));

    CacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.insertions, 1u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_GT(st.bytes, 0u);
}

TEST(ServeCache, ReinsertReplacesEntry)
{
    ResultCache cache;
    cache.insert("k", holes({{"a", 1}}));
    cache.insert("k", holes({{"a", 2}}));
    EXPECT_EQ(cache.stats().entries, 1u);
    auto hit = cache.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ((*hit)["a"], BitVec(8, 2));
}

TEST(ServeCache, EvictsLeastRecentlyUsedUnderByteCap)
{
    // Entries are ~100 bytes each; cap to roughly two of them.
    ResultCache cache(220);
    cache.insert("k1", holes({{"a", 1}}));
    cache.insert("k2", holes({{"a", 2}}));
    // Touch k1 so k2 is the LRU victim when k3 arrives.
    EXPECT_TRUE(cache.lookup("k1").has_value());
    cache.insert("k3", holes({{"a", 3}}));

    CacheStats st = cache.stats();
    EXPECT_GE(st.evictions, 1u);
    EXPECT_LE(st.bytes, cache.maxBytes());
    EXPECT_TRUE(cache.lookup("k1").has_value());
    EXPECT_FALSE(cache.lookup("k2").has_value());
    EXPECT_TRUE(cache.lookup("k3").has_value());
}

TEST(ServeCache, NeverEvictsDownToEmpty)
{
    // A cap smaller than any one entry still keeps the newest entry:
    // a cache that evicted everything would never serve a hit.
    ResultCache cache(1);
    cache.insert("k1", holes({{"a", 1}}));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_TRUE(cache.lookup("k1").has_value());
}

// ---- fingerprints ------------------------------------------------------

TEST(ServeFingerprint, StableAcrossRebuilds)
{
    auto a = designs::makeCaseStudy("accumulator");
    auto b = designs::makeCaseStudy("accumulator");
    ASSERT_TRUE(a && b);
    EXPECT_EQ(designFingerprint(a->sketch, a->spec, a->alpha),
              designFingerprint(b->sketch, b->spec, b->alpha));
    for (const auto &instr : a->spec.instrs())
        EXPECT_EQ(instrFingerprint(a->spec, *instr),
                  instrFingerprint(b->spec,
                                   b->spec.instr(instr->name())));
}

TEST(ServeFingerprint, DistinguishesDesignsAndInstructions)
{
    auto acc = designs::makeCaseStudy("accumulator");
    auto alu = designs::makeCaseStudy("alu-machine");
    ASSERT_TRUE(acc && alu);
    EXPECT_NE(designFingerprint(acc->sketch, acc->spec, acc->alpha),
              designFingerprint(alu->sketch, alu->spec, alu->alpha));

    std::set<uint64_t> fps;
    for (const auto &instr : acc->spec.instrs())
        fps.insert(instrFingerprint(acc->spec, *instr));
    EXPECT_EQ(fps.size(), acc->spec.instrs().size());

    std::set<std::string> keys;
    uint64_t dfp =
        designFingerprint(acc->sketch, acc->spec, acc->alpha);
    for (const auto &instr : acc->spec.instrs())
        keys.insert(cacheKey(dfp, instrFingerprint(acc->spec, *instr)));
    EXPECT_EQ(keys.size(), acc->spec.instrs().size());
}

// ---- request wire format -----------------------------------------------

TEST(ServeRequest, ParsesAllFields)
{
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::Value::parse(
        R"({"id":"j1","design":"accumulator","budget_ms":1500,
            "max_iterations":9,"verify":true,"check_proofs":true,
            "stats_json":"/tmp/x.json"})",
        v, &err))
        << err;
    JobRequest req;
    ASSERT_TRUE(parseJobRequest(v, req, err)) << err;
    EXPECT_EQ(req.id, "j1");
    EXPECT_EQ(req.design, "accumulator");
    EXPECT_EQ(req.budgetMs, 1500);
    EXPECT_EQ(req.maxIterations, 9);
    EXPECT_TRUE(req.verify);
    EXPECT_TRUE(req.checkProofs);
    EXPECT_EQ(req.statsJson, "/tmp/x.json");
}

TEST(ServeRequest, RejectsMalformedJobs)
{
    const char *bad[] = {
        R"({"design":"acc","typo_field":1})", // unknown field
        R"({"id":"x"})",                      // missing design
        R"({"design":42})",                   // wrong type
        R"({"design":"acc","budget_ms":-5})", // negative budget
        R"({"design":"acc","max_iterations":0})",
        R"([1,2,3])",                         // not an object
    };
    for (const char *text : bad) {
        obs::json::Value v;
        std::string err;
        ASSERT_TRUE(obs::json::Value::parse(text, v, &err)) << text;
        JobRequest req;
        EXPECT_FALSE(parseJobRequest(v, req, err)) << text;
        EXPECT_FALSE(err.empty());
    }
}

TEST(ServeRequest, ParsesJobsFileBothShapes)
{
    std::vector<JobRequest> jobs;
    std::string err;
    ASSERT_TRUE(parseJobsFile(
        R"({"jobs":[{"design":"a"},{"design":"b","id":"x"}]})", jobs,
        err))
        << err;
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[1].id, "x");

    jobs.clear();
    ASSERT_TRUE(parseJobsFile(R"([{"design":"a"}])", jobs, err))
        << err;
    EXPECT_EQ(jobs.size(), 1u);

    jobs.clear();
    EXPECT_FALSE(parseJobsFile(
        R"({"jobs":[{"design":"a"},{"nope":1}]})", jobs, err));
    EXPECT_NE(err.find("job 1"), std::string::npos) << err;
}

TEST(ServeRequest, ResultRoundTripsThroughJson)
{
    JobResult r;
    r.id = "j9";
    r.design = "accumulator";
    r.status = "ok";
    r.seconds = 0.25;
    r.iterations = 7;
    r.cacheHits = 2;
    r.cacheMisses = 1;
    r.holes.emplace_back("instr_a", holes({{"h0", 0x3f}}));

    obs::json::Value v = resultToJson(r);
    EXPECT_EQ(v.find("id")->asString(), "j9");
    EXPECT_EQ(v.find("status")->asString(), "ok");
    EXPECT_EQ(v.find("cache_hits")->asInt(), 2);
    const obs::json::Value *hv = v.find("holes");
    ASSERT_NE(hv, nullptr);
    ASSERT_NE(hv->find("instr_a"), nullptr);
    EXPECT_EQ(hv->find("instr_a")->find("h0")->asString(),
              BitVec(8, 0x3f).toString());
}

// ---- warm session pool -------------------------------------------------

TEST(ServePool, ReusesParkedSessions)
{
    auto cs = designs::makeCaseStudy("accumulator");
    ASSERT_TRUE(cs);
    const designs::CaseStudyMaker *maker =
        designs::findCaseStudyMaker("accumulator");
    ASSERT_NE(maker, nullptr);
    uint64_t dfp = designFingerprint(cs->sketch, cs->spec, cs->alpha);
    std::string instr = cs->spec.instrs().front()->name();

    WarmSessionPool pool(4);
    synth::CegisOptions opts;
    {
        auto binding = pool.bind(dfp, *maker);
        auto s = binding->checkout(instr, opts);
        ASSERT_NE(s, nullptr);
        binding->checkin(std::move(s));
    }
    SessionPoolStats st = pool.stats();
    EXPECT_EQ(st.created, 1u);
    EXPECT_EQ(st.reused, 0u);
    EXPECT_EQ(st.parked, 1u);

    {
        auto binding = pool.bind(dfp, *maker);
        auto s = binding->checkout(instr, opts);
        ASSERT_NE(s, nullptr);
        binding->checkin(std::move(s));
    }
    st = pool.stats();
    EXPECT_EQ(st.created, 1u);
    EXPECT_EQ(st.reused, 1u);
    EXPECT_EQ(st.slots, 1u);
}

TEST(ServePool, RebuildsOnIncompatibleOptions)
{
    auto cs = designs::makeCaseStudy("accumulator");
    ASSERT_TRUE(cs);
    const designs::CaseStudyMaker *maker =
        designs::findCaseStudyMaker("accumulator");
    uint64_t dfp = designFingerprint(cs->sketch, cs->spec, cs->alpha);
    std::string instr = cs->spec.instrs().front()->name();

    // A session keeps the SolverConfig it was built under (solver
    // fleet, proof sinks, Ackermann mode, ...), so flipping any one
    // field must rebuild instead of reusing the parked session.
    using Flip = void (*)(synth::CegisOptions &);
    const std::pair<const char *, Flip> flips[] = {
        {"satPortfolio", [](synth::CegisOptions &o) { o.satPortfolio = 3; }},
        {"checkProofs", [](synth::CegisOptions &o) { o.checkProofs = true; }},
        {"profileSat", [](synth::CegisOptions &o) { o.profileSat = true; }},
        {"preprocess", [](synth::CegisOptions &o) { o.preprocess = false; }},
        {"inprocessConflicts",
         [](synth::CegisOptions &o) { o.inprocessConflicts = 0; }},
        {"eagerAckermann",
         [](synth::CegisOptions &o) { o.eagerAckermann = true; }},
    };
    for (const auto &[field, flip] : flips) {
        SCOPED_TRACE(field);
        WarmSessionPool pool(4);
        synth::CegisOptions plain, flipped;
        flip(flipped);
        for (const synth::CegisOptions *opts : {&plain, &flipped, &flipped}) {
            auto binding = pool.bind(dfp, *maker);
            auto s = binding->checkout(instr, *opts);
            ASSERT_NE(s, nullptr);
            binding->checkin(std::move(s));
        }
        // The flipped config was built once, then reused as-is.
        SessionPoolStats st = pool.stats();
        EXPECT_EQ(st.created, 2u);
        EXPECT_EQ(st.reused, 1u);
    }
}

TEST(ServePool, EvictsColdSlotsButNeverPinnedOnes)
{
    auto acc = designs::makeCaseStudy("accumulator");
    auto alu = designs::makeCaseStudy("alu-machine");
    ASSERT_TRUE(acc && alu);
    uint64_t afp =
        designFingerprint(acc->sketch, acc->spec, acc->alpha);
    uint64_t lfp =
        designFingerprint(alu->sketch, alu->spec, alu->alpha);

    WarmSessionPool pool(1);
    auto pinned =
        pool.bind(afp, *designs::findCaseStudyMaker("accumulator"));
    {
        // Over capacity, but the accumulator slot is pinned by a live
        // binding; the pool stays at two slots until the pin drops.
        auto b =
            pool.bind(lfp, *designs::findCaseStudyMaker("alu-machine"));
        EXPECT_EQ(pool.stats().slots, 2u);
    }
    pinned.reset();
    // The next bind triggers eviction of whichever slot is cold.
    auto b =
        pool.bind(lfp, *designs::findCaseStudyMaker("alu-machine"));
    EXPECT_EQ(pool.stats().slots, 1u);
}

// ---- budgets -----------------------------------------------------------

TEST(ServeBudget, ExpiredDeadlineTimesOutEvenWithTinySolves)
{
    // Accumulator SAT calls finish far below the CDCL deadline-poll
    // stride, so only the inter-iteration budget checks can see an
    // expired deadline. A deadline in the past must yield Timeout,
    // not a completed synthesis.
    auto cs = designs::makeCaseStudy("accumulator");
    ASSERT_TRUE(cs);
    synth::CegisOptions opts;
    opts.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
    synth::InstrSynthesizer synth(cs->sketch, cs->spec, cs->alpha);
    synth::CegisResult r = synth.synthesize(
        *cs->spec.instrs().front(), nullptr, opts);
    EXPECT_EQ(r.status, synth::SynthStatus::Timeout);
}

TEST(ServeBudget, RequestBudgetProducesTimeoutStatus)
{
    Server server;
    JobRequest req = job("rv32i-2stage");
    req.budgetMs = 1; // expires before the first instruction finishes
    std::vector<JobResult> results = server.runBatch({req});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, "timeout");
    EXPECT_FALSE(results[0].failedInstr.empty());
}

// ---- server end-to-end -------------------------------------------------

TEST(ServeServer, SecondIdenticalJobIsAllCacheHitsAndBitIdentical)
{
    Server server;
    std::vector<JobResult> results =
        server.runBatch({job("accumulator"), job("accumulator")});
    ASSERT_EQ(results.size(), 2u);
    ASSERT_EQ(results[0].status, "ok");
    ASSERT_EQ(results[1].status, "ok");

    size_t n_instr = results[0].holes.size();
    EXPECT_GT(n_instr, 0u);
    EXPECT_EQ(results[0].cacheHits, 0u);
    EXPECT_EQ(results[0].cacheMisses, n_instr);
    EXPECT_EQ(results[1].cacheHits, n_instr);
    EXPECT_EQ(results[1].cacheMisses, 0u);
    EXPECT_EQ(results[1].iterations, 0);

    EXPECT_EQ(holesString(results[0].holes),
              holesString(results[1].holes));

    // And the cached result matches a from-scratch library run.
    auto cs = designs::makeCaseStudy("accumulator");
    synth::SynthesisResult fresh = synth::synthesizeControl(
        cs->sketch, cs->spec, cs->alpha, {});
    ASSERT_EQ(fresh.status, synth::SynthStatus::Ok);
    EXPECT_EQ(holesString(results[1].holes),
              holesString(fresh.perInstr));
}

TEST(ServeServer, WarmSessionsKickInWhenCacheEvicts)
{
    // A cache too small to hold the design's results forces the
    // second identical job back through CEGIS — which must then ride
    // the warm session pool and still produce bit-identical holes.
    ServerOptions sopts;
    sopts.cacheBytes = 1; // keeps at most one entry
    Server server(sopts);
    std::vector<JobResult> results =
        server.runBatch({job("accumulator"), job("accumulator")});
    ASSERT_EQ(results[0].status, "ok");
    ASSERT_EQ(results[1].status, "ok");
    EXPECT_GT(results[1].cacheMisses, 0u);
    EXPECT_GT(results[1].sessionsReused, 0u);
    EXPECT_EQ(holesString(results[0].holes),
              holesString(results[1].holes));
}

TEST(ServeServer, BadRequestAndErrorDoNotPoisonTheSession)
{
    // One session processes a bad request between two good ones; the
    // good ones must be unaffected (fresh spans, correct accounting).
    Server server;
    std::vector<JobResult> results = server.runBatch(
        {job("accumulator"), job("no-such-design"),
         job("accumulator")});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, "ok");
    EXPECT_EQ(results[1].status, "bad-request");
    EXPECT_NE(results[1].error.find("no-such-design"),
              std::string::npos);
    EXPECT_EQ(results[2].status, "ok");
    EXPECT_EQ(results[2].cacheHits, results[0].holes.size());
    EXPECT_EQ(results[0].spansAbandoned, 0u);
    EXPECT_EQ(results[2].spansAbandoned, 0u);
}

TEST(ServeServer, VerifyFlagRunsEndToEnd)
{
    Server server;
    JobRequest req = job("accumulator");
    req.verify = true;
    std::vector<JobResult> results = server.runBatch({req});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, "ok");
}

TEST(ServeServer, VerifyOutOfBudgetIsTimeoutNotFailure)
{
    // A budget that runs out during the verify pass is a timeout, not
    // a failed verification of a correct design. The first job warms
    // the cache, so the later ones answer synthesis from cache hits
    // and reach the verify pass within a few milliseconds; the sweep
    // of budgets lands some of them inside it.
    Server server;
    JobResult warm = server.runBatch({job("accumulator")})[0];
    ASSERT_EQ(warm.status, "ok");
    for (int64_t ms : {1, 2, 3, 5, 8, 13, 21}) {
        JobRequest req = job("accumulator");
        req.verify = true;
        req.budgetMs = ms;
        JobResult r = server.runBatch({req})[0];
        EXPECT_TRUE(r.status == "ok" || r.status == "timeout")
            << "budget " << ms << " ms: " << r.status << " at "
            << r.failedInstr;
    }
}

TEST(ServeServer, SubmitAfterShutdownThrows)
{
    Server server;
    server.shutdown();
    EXPECT_THROW(server.submit(job("accumulator")),
                 std::runtime_error);
    std::future<JobResult> fut;
    EXPECT_FALSE(server.trySubmit(job("accumulator"), &fut));
}

TEST(ServeServer, ConcurrentMixedBatchIsDeterministic)
{
    // The TSan target: several sessions hammer the shared cache and
    // warm pool with identical and distinct designs at once. Every
    // job must succeed and identical designs must agree bit-for-bit.
    ServerOptions sopts;
    sopts.sessions = 4;
    Server server(sopts);
    std::vector<JobRequest> jobs;
    for (int i = 0; i < 6; i++) {
        jobs.push_back(job("accumulator"));
        jobs.push_back(job("alu-machine"));
    }
    std::vector<JobResult> results = server.runBatch(std::move(jobs));
    ASSERT_EQ(results.size(), 12u);
    for (const JobResult &r : results)
        EXPECT_EQ(r.status, "ok") << r.design << ": " << r.error;
    for (size_t i = 2; i < results.size(); i += 2) {
        EXPECT_EQ(holesString(results[i].holes),
                  holesString(results[0].holes));
        EXPECT_EQ(holesString(results[i + 1].holes),
                  holesString(results[1].holes));
    }
}

// ---- socket front end --------------------------------------------------

namespace
{

/** Tiny blocking NDJSON client; empty string on connect failure. */
std::string
socketRoundTrip(const std::string &path,
                const std::vector<std::string> &lines)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The listener thread may not have bound yet; retry briefly.
    int rc = -1;
    for (int i = 0; i < 100 && rc != 0; i++) {
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
        if (rc != 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    if (rc != 0) {
        ::close(fd);
        return "";
    }
    std::string out;
    for (const std::string &line : lines) {
        std::string msg = line + "\n";
        (void)!::write(fd, msg.data(), msg.size());
        // One response line per request line, in order.
        char c;
        while (::read(fd, &c, 1) == 1) {
            out += c;
            if (c == '\n')
                break;
        }
    }
    ::close(fd);
    return out;
}

} // namespace

TEST(ServeSocket, NdjsonRequestsStatsAndShutdown)
{
    std::string path = testing::TempDir() + "owl_serve_test.sock";
    ::unlink(path.c_str());
    {
        // Probe: environments without unix sockets skip, not fail.
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            GTEST_SKIP() << "no unix sockets: " << strerror(errno);
        ::close(fd);
    }

    Server server;
    std::string err;
    bool listen_ok = false;
    std::thread listener([&] {
        listen_ok = serveSocket(server, path, &err);
    });
    std::string reply = socketRoundTrip(
        path, {R"({"design":"accumulator","id":"s1"})",
               R"({"design":"accumulator","id":"s2"})",
               R"({"cmd":"stats"})", R"({"cmd":"shutdown"})"});
    listener.join();
    EXPECT_TRUE(listen_ok) << err;

    // Four request lines -> four response lines.
    ASSERT_EQ(std::count(reply.begin(), reply.end(), '\n'), 4);
    std::vector<obs::json::Value> docs;
    size_t pos = 0;
    while (pos < reply.size()) {
        size_t nl = reply.find('\n', pos);
        obs::json::Value v;
        std::string perr;
        ASSERT_TRUE(obs::json::Value::parse(
            reply.substr(pos, nl - pos), v, &perr))
            << perr;
        docs.push_back(std::move(v));
        pos = nl + 1;
    }
    EXPECT_EQ(docs[0].find("status")->asString(), "ok");
    EXPECT_EQ(docs[0].find("id")->asString(), "s1");
    EXPECT_EQ(docs[1].find("cache_hits")->asInt(),
              docs[0].find("holes")->size());
    ASSERT_NE(docs[2].find("cache"), nullptr);
    EXPECT_GT(docs[2].find("cache")->find("hits")->asInt(), 0);
    EXPECT_EQ(docs[3].find("status")->asString(), "ok");
}
