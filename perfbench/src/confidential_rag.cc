/**
 * @file
 * confidential_rag: the functional code end to end. Set-up builds the
 * corpus and its indexes, prices retrieval under TDX from counted
 * work, measures TinyLlama, attests it (quote + DH handshake per
 * client) and unseals its weights from the FsShield. The timed phase
 * serves every query of the corpus in batch-synchronous rounds of four
 * closed-loop clients: each query is sealed on a SecureChannel,
 * retrieved by BM25->rerank and by dense search, its augmented prompt
 * is fed through TinyLlama::forward (matvec path) and the round's
 * answers are decoded together through forwardBatch (GEMM path); each
 * reply is sealed back and opened by its client.
 *
 * Modelled figures come only from counted work: retrieval priced by
 * priceRagRun under TDX, plus the TDX Llama2-7B step model's prefill
 * and decodeStep at each query's prompt and answer length.
 */

#include "workload.hh"

#include <algorithm>
#include <array>
#include <optional>

#include "cost/pricing.hh"
#include "llm/model_config.hh"
#include "llm/runtime.hh"
#include "llm/tokenizer.hh"
#include "rag/beir.hh"
#include "rag/rag_pipeline.hh"
#include "tee/attest.hh"
#include "tee/backend.hh"
#include "tee/fs_shield.hh"
#include "tee/session.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace perfbench {

namespace {

using namespace cllm;

constexpr unsigned kClients = 4;
constexpr unsigned kQueries = 1024;
constexpr std::size_t kDocs = 2000;
constexpr std::size_t kDocWords = 24;
constexpr std::size_t kQueryWords = 4;
/** Hits retrieved per method; nDCG@10 needs ten. */
constexpr std::size_t kTopK = 10;
/**
 * Context budget per query: characters of retrieved text spliced into
 * the prompt, drawn per query from the seed as kMinContext + u^2 *
 * kContextSpan with u uniform in [0, 1): mostly short, sometimes long.
 * Lock-step decode gaps lie on a lattice of one prompt token per batch;
 * a wide prompt-length spread moves their median across many lattice
 * points from seed to seed, so the modelled gap percentiles vary with
 * the seed instead of repeating one lattice value.
 */
constexpr std::size_t kMinContext = 4;
constexpr double kContextSpan = 96.0;
/** BM25 candidates RagMethod::RerankedBm25 reranks. */
constexpr std::size_t kRerankDepth = 50;
/**
 * Tokens per answer. One length for all keeps every decode step at the
 * full batch, so inter-token gaps vary with prompt lengths only.
 */
constexpr unsigned kAnswerTokens = 12;
constexpr const char *kWeightsPath = "/models/tiny-llama.bin";

llm::ModelConfig
tinyConfig()
{
    llm::ModelConfig c;
    c.name = "tiny-llama";
    c.layers = 2;
    c.hidden = 48;
    c.heads = 4;
    c.kvHeads = 2;
    c.ffn = 96;
    c.vocab = llm::ByteTokenizer::kVocabSize;
    c.maxContext = 512;
    return c;
}

llm::RunParams
deployParams(const hw::CpuSpec &cpu)
{
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = kClients;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return p;
}

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

llm::TokenId
argmax(const std::vector<float> &logits)
{
    return static_cast<llm::TokenId>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
}

/** One client's attested session: both directions, both ends. */
struct Session
{
    tee::SecureChannel clientTx, serverRx; // client -> server
    tee::SecureChannel serverTx, clientRx; // server -> client

    explicit Session(const tee::SessionKeys &k)
        : clientTx(k.clientToServer), serverRx(k.clientToServer),
          serverTx(k.serverToClient), clientRx(k.serverToClient)
    {
    }
};

/** Retrieval work counted per method, as RagPipeline::evaluate does. */
struct Counted
{
    rag::RagEvalResult rr, dense;
    std::uint64_t postings = 0;
};

/** Host time spent in each wrapped call of a traced repetition. */
struct RagTimes
{
    std::uint64_t bm25Ns = 0, rerankedNs = 0, denseNs = 0;
    std::uint64_t fwdNs = 0, fwdTokens = 0;
    std::uint64_t batchNs = 0, batchTokens = 0;
    std::uint64_t sealNs = 0, sealMsgs = 0, sealedBytes = 0;
};

class ConfidentialRag final : public Workload
{
  public:
    explicit ConfidentialRag(const WorkloadOptions &opt)
        : seed_(opt.seed), queries_(scaled(kQueries, opt.scale))
    {
    }

    unsigned threads() const override { return 2; }

    void
    setup(bool traced) override
    {
        setupFailures_.clear();
        setupLayer_.clear();
        cpu_ = hw::emr2();
        backend_ = std::shared_ptr<const tee::TeeBackend>(tee::makeTdx());

        rag::BeirConfig bc;
        bc.numDocs = kDocs;
        bc.numQueries = queries_;
        bc.docLen = kDocWords;
        bc.queryLen = kQueryWords;
        bc.seed = seed_;
        dataset_ = std::make_unique<rag::BeirDataset>(rag::generateBeir(bc));
        pipeline_ = std::make_unique<rag::RagPipeline>(*dataset_);

        // The sealing model, measured over its weights.
        const llm::ModelConfig tiny = tinyConfig();
        const llm::TinyLlama sealer(tiny, hw::Dtype::Fp32,
                                    splitSeed(seed_, 1));
        const std::vector<std::uint8_t> blob = sealer.saveWeights();
        tee::MeasurementBuilder mb;
        mb.extend("runtime", std::string("cllm tiny-llama server"));
        mb.extend("weights", blob);
        const tee::Measurement enclave = mb.finish();

        // Attest to every client and derive its session keys.
        const Clock::time_point a0 = Clock::now();
        const tee::QuotingEnclave platform(
            crypto::sha256("platform-" + std::to_string(seed_)));
        tee::QuoteVerifier verifier(platform.verificationKey());
        verifier.allow(enclave);
        sessions_.clear();
        for (unsigned c = 0; c < kClients; ++c) {
            const tee::DhKeyPair server_dh(splitSeed(seed_, 100 + c));
            const tee::DhKeyPair client_dh(splitSeed(seed_, 200 + c));
            const tee::ServerHello hello =
                tee::makeServerHello(platform, enclave, server_dh);
            const tee::HandshakeResult hs =
                tee::completeHandshake(verifier, hello, client_dh);
            if (!hs.ok || hs.status != tee::VerifyStatus::Ok) {
                setupFailures_.push_back("confidential_rag: quote for "
                                         "client " + std::to_string(c) +
                                         " does not verify");
                continue;
            }
            const tee::SessionKeys server_keys = tee::deriveSessionKeys(
                server_dh.sharedSecret(client_dh.publicValue()));
            if (server_keys.clientToServer != hs.keys.clientToServer ||
                server_keys.serverToClient != hs.keys.serverToClient)
                setupFailures_.push_back("confidential_rag: session keys "
                                         "disagree");
            sessions_.push_back(std::make_unique<Session>(hs.keys));
        }
        const Clock::time_point a1 = Clock::now();

        // Seal the weights, then unseal them into the serving model.
        tee::FsShield fs(platform.sealingKey(enclave));
        fs.put(kWeightsPath, blob);
        const Clock::time_point u0 = Clock::now();
        const std::optional<std::vector<std::uint8_t>> unsealed =
            fs.get(kWeightsPath);
        const Clock::time_point u1 = Clock::now();
        model_ = std::make_unique<llm::TinyLlama>(tiny, hw::Dtype::Fp32,
                                                  splitSeed(seed_, 2));
        if (!unsealed || *unsealed != blob || !model_->loadWeights(*unsealed))
            setupFailures_.push_back("confidential_rag: weights do not "
                                     "unseal and reload");
        const std::vector<llm::TokenId> probe =
            tok_.encode("confidential inference");
        if (model_->generateGreedy(probe, 8) != sealer.generateGreedy(probe, 8))
            setupFailures_.push_back("confidential_rag: unsealed model's "
                                     "greedy output differs");

        step_ = makeStep();
        instanceHr_ = cost::cpuInstanceHr(cost::gcpSpotUsEast1(),
                                          cpu_.coresPerSocket, 128.0);

        if (traced) {
            setupLayer_["tee.attest_ms"] =
                1e3 * secondsBetween(a0, a1) / kClients;
            setupLayer_["crypto.unseal_mb_per_s"] =
                1e-6 * static_cast<double>(blob.size()) /
                secondsBetween(u0, u1);
            setupLayer_["rag.index_bytes"] =
                static_cast<double>(pipeline_->store().indexBytes());
        }
    }

    Values setupLayer() const override { return setupLayer_; }

    RepOutcome
    run(bool traced) override
    {
        RepOutcome o;
        for (const std::string &f : setupFailures_)
            o.check(false, f);
        const auto &queries = dataset_->queries;
        if (sessions_.size() != kClients) {
            o.attempted = o.failed = queries.size();
            return o;
        }

        StepTally tally;
        std::unique_ptr<serve::StepModel> probe;
        const serve::StepModel *step = step_.get();
        if (traced) {
            probe = std::make_unique<ProbeStepModel>(makeStep(), tally);
            step = probe.get();
        }

        RagTimes times;
        Counted counted;
        // Modelled seconds per query: its first token's time into its
        // round, and the time from there to its last token. The first
        // gap includes the prefills of later queries in the round.
        std::vector<double> queue_s, decode_s(queries.size(), 0.0), itl;
        double llm_s = 0.0;
        std::uint64_t out_tokens = 0, prompt_tokens = 0;
        std::uint64_t reply_hash = 1469598103934665603ULL;

        SliceTimer slices(o);
        for (std::size_t base = 0; base < queries.size(); base += kClients) {
            const std::size_t n =
                std::min<std::size_t>(kClients, queries.size() - base);
            std::array<Clock::time_point, kClients> start{};
            std::vector<llm::KvCache> caches;
            std::vector<std::vector<float>> logits(n);
            std::vector<unsigned> prompt_len(n);
            double clock = 0.0; // modelled seconds into the round
            std::vector<double> last(n); // each query's latest token

            for (std::size_t c = 0; c < n; ++c) {
                const std::size_t qi = base + c;
                const rag::BeirQuery &q = queries[qi];
                start[c] = Clock::now();
                Session &s = *sessions_[c];
                const tee::SealedMessage req =
                    sealTimed(s.clientTx, bytesOf(q.text), traced, times);
                const auto opened = s.serverRx.open(req);
                if (!opened || *opened != bytesOf(q.text))
                    o.check(false, "confidential_rag: query " +
                                       std::to_string(qi) +
                                       " does not round-trip");

                const double u =
                    static_cast<double>(splitSeed(seed_, 2000 + qi) >> 11) *
                    0x1p-53;
                const std::size_t context =
                    kMinContext +
                    static_cast<std::size_t>(u * u * kContextSpan);
                const std::vector<llm::TokenId> toks =
                    tok_.encode(augment(q, context, traced, times, counted));
                caches.push_back(model_->makeCache());
                const Clock::time_point f0 = Clock::now();
                for (llm::TokenId t : toks)
                    logits[c] = model_->forward(t, caches.back());
                if (traced) {
                    times.fwdNs += nsBetween(f0, Clock::now());
                    times.fwdTokens += toks.size();
                }
                prompt_len[c] = static_cast<unsigned>(toks.size());
                prompt_tokens += toks.size();
                clock += step->prefill(prompt_len[c]);
                queue_s.push_back(clock);
                last[c] = clock;
            }

            // Decode the round's answers together: token 0 comes from
            // the prefill logits, each later one from a batched step.
            std::vector<std::vector<llm::TokenId>> answers(n);
            std::vector<llm::KvCache *> batch;
            for (llm::KvCache &cache : caches)
                batch.push_back(&cache);
            for (unsigned pos = 0;; ++pos) {
                std::vector<llm::TokenId> next;
                double ctx = 0.0;
                for (std::size_t c = 0; c < n; ++c) {
                    answers[c].push_back(argmax(logits[c]));
                    next.push_back(answers[c].back());
                    ctx += prompt_len[c] + pos;
                }
                if (pos + 1 == kAnswerTokens)
                    break;
                const Clock::time_point b0 = Clock::now();
                logits = model_->forwardBatch(next, batch);
                if (traced) {
                    times.batchNs += nsBetween(b0, Clock::now());
                    times.batchTokens += next.size();
                }
                clock += step->decodeStep(static_cast<double>(n),
                                          ctx / static_cast<double>(n));
                for (std::size_t c = 0; c < n; ++c) {
                    itl.push_back(clock - last[c]);
                    decode_s[base + c] += clock - last[c];
                    last[c] = clock;
                }
            }
            llm_s += clock;

            for (std::size_t c = 0; c < n; ++c) {
                const std::size_t qi = base + c;
                const std::string reply = tok_.decode(answers[c]);
                for (unsigned char ch : reply)
                    reply_hash = (reply_hash ^ ch) * 1099511628211ULL;
                Session &s = *sessions_[c];
                const tee::SealedMessage rep =
                    sealTimed(s.serverTx, bytesOf(reply), traced, times);
                const auto opened = s.clientRx.open(rep);
                if (!opened || *opened != bytesOf(reply))
                    o.check(false, "confidential_rag: reply " +
                                       std::to_string(qi) +
                                       " does not round-trip");
                o.requestMs.push_back(1e3 *
                                      secondsBetween(start[c], Clock::now()));
                out_tokens += kAnswerTokens;
            }
            o.requests += n;
            o.attempted += n;
            slices.mark();
        }

        // Retrieval is priced over the whole query set, as for
        // RagPipeline::evaluate, so the index stream is amortised.
        const std::uint64_t index_bytes = pipeline_->store().indexBytes();
        const unsigned cores = cpu_.coresPerSocket;
        const double retrieval_s =
            rag::priceRagRun(cpu_, *backend_, counted.rr, index_bytes, cores)
                .meanQuerySeconds +
            rag::priceRagRun(cpu_, *backend_, counted.dense, index_bytes,
                             cores)
                .meanQuerySeconds;
        std::vector<double> ttft;
        std::size_t slo_ok = 0;
        for (std::size_t qi = 0; qi < queries.size(); ++qi) {
            ttft.push_back(retrieval_s + queue_s[qi]);
            const double per_tok = decode_s[qi] / (kAnswerTokens - 1);
            if (ttft.back() <= kTtftSlo && per_tok <= kTpotSlo)
                ++slo_ok;
        }
        const double q = static_cast<double>(queries.size());

        putLatency(o.model, summarize(ttft, 0.0), summarize(itl, 0.0));
        o.model["model_slo_attainment"] = static_cast<double>(slo_ok) / q;
        o.model["model_cost_per_1k_tok_usd"] = cost::costPer1kTokens(
            out_tokens,
            cost::nodeSecondsUsd(instanceHr_, retrieval_s * q + llm_s));
        o.model["quality_ndcg10"] = counted.rr.ndcg10 / q;
        o.model["model.output_tokens"] = static_cast<double>(out_tokens);
        o.model["model.prompt_tokens"] = static_cast<double>(prompt_tokens);
        // The replies themselves must repeat too.
        o.model["model.reply_hash"] = static_cast<double>(reply_hash >> 11);
        slices.mark();

        if (traced) {
            auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
            putStepTally(o.layer, tally);
            o.layer["rag.bm25_ms"] = 1e-6 * static_cast<double>(times.bm25Ns) / q;
            o.layer["rag.rerank_ms"] =
                1e-6 *
                static_cast<double>(std::max(times.rerankedNs, times.bm25Ns) -
                                    times.bm25Ns) /
                q;
            o.layer["rag.dense_ms"] =
                1e-6 * static_cast<double>(times.denseNs) / q;
            o.layer["rag.postings_visited"] =
                static_cast<double>(counted.postings);
            o.layer["rag.pairs_scored"] =
                static_cast<double>(counted.rr.pairsScored);
            o.layer["rag.bytes_touched"] = static_cast<double>(
                counted.rr.totalBytes + counted.dense.totalBytes);
            o.layer["llm.fwd_tokens"] = static_cast<double>(times.fwdTokens);
            o.layer["llm.fwd_ns_per_token"] =
                per(static_cast<double>(times.fwdNs),
                    static_cast<double>(times.fwdTokens));
            o.layer["llm.batch_fwd_tokens"] =
                static_cast<double>(times.batchTokens);
            o.layer["llm.batch_fwd_ns_per_token"] =
                per(static_cast<double>(times.batchNs),
                    static_cast<double>(times.batchTokens));
            o.layer["crypto.seal_us_per_msg"] =
                per(1e-3 * static_cast<double>(times.sealNs),
                    static_cast<double>(times.sealMsgs));
            o.layer["crypto.sealed_bytes"] =
                static_cast<double>(times.sealedBytes);
        }
        return o;
    }

  private:
    static constexpr double kTtftSlo = 2.0;
    static constexpr double kTpotSlo = 0.200;

    std::unique_ptr<serve::StepModel>
    makeStep() const
    {
        return serve::makeCpuStepModel(cpu_, backend_, llm::llama2_7b(),
                                       deployParams(cpu_));
    }

    tee::SealedMessage
    sealTimed(tee::SecureChannel &ch, const std::vector<std::uint8_t> &pt,
              bool traced, RagTimes &times)
    {
        const Clock::time_point t0 = Clock::now();
        tee::SealedMessage m = ch.seal(pt);
        if (traced) {
            times.sealNs += nsBetween(t0, Clock::now());
            ++times.sealMsgs;
            times.sealedBytes += pt.size();
        }
        return m;
    }

    /**
     * Retrieve context for `q` (BM25->rerank and dense), count the work
     * exactly as RagPipeline::evaluate does, and build the augmented
     * prompt with `context` characters from the two top hits. A traced repetition also times a bare BM25 search of the
     * reranker's candidate depth; rerank time is the reranked
     * retrieval less that search.
     */
    std::string
    augment(const rag::BeirQuery &q, std::size_t context, bool traced,
            RagTimes &times, Counted &counted) const
    {
        if (traced) {
            const Clock::time_point t0 = Clock::now();
            (void)pipeline_->store().search(q.text, kRerankDepth);
            times.bm25Ns += nsBetween(t0, Clock::now());
        }
        rag::SearchStats ss;
        rag::RerankStats rs;
        rag::DenseStats ds;
        const Clock::time_point r0 = Clock::now();
        const std::vector<rag::SearchHit> rr = pipeline_->retrieve(
            rag::RagMethod::RerankedBm25, q.text, kTopK, &ss, nullptr, &rs);
        const Clock::time_point r1 = Clock::now();
        const std::vector<rag::SearchHit> dense = pipeline_->retrieve(
            rag::RagMethod::Sbert, q.text, kTopK, nullptr, &ds, nullptr);
        const Clock::time_point r2 = Clock::now();
        if (traced) {
            times.rerankedNs += nsBetween(r0, r1);
            times.denseNs += nsBetween(r1, r2);
        }

        counted.rr.ndcg10 += rag::ndcgAtK(rr, q.qrels, 10);
        counted.rr.totalBytes += ss.bytesTouched;
        counted.rr.totalFlops += rs.flops + ss.postingsVisited * 12;
        counted.rr.pairsScored += rs.pairsScored;
        ++counted.rr.queries;
        counted.dense.totalBytes += ds.bytesTouched;
        counted.dense.totalFlops += ds.embedFlops;
        ++counted.dense.queriesEmbedded;
        ++counted.dense.queries;
        counted.postings += ss.postingsVisited;

        std::string prompt = q.text;
        for (const auto *hits : {&rr, &dense}) {
            if (hits->empty())
                continue;
            const std::string &body =
                pipeline_->store().doc(hits->front().id).body;
            prompt.push_back('|');
            prompt.append(body, 0, context / 2);
        }
        return prompt;
    }

    std::uint64_t seed_;
    unsigned queries_;
    hw::CpuSpec cpu_{};
    std::shared_ptr<const tee::TeeBackend> backend_;
    std::unique_ptr<rag::BeirDataset> dataset_;
    std::unique_ptr<rag::RagPipeline> pipeline_;
    std::unique_ptr<llm::TinyLlama> model_;
    std::unique_ptr<serve::StepModel> step_;
    std::vector<std::unique_ptr<Session>> sessions_;
    llm::ByteTokenizer tok_;
    double instanceHr_ = 0.0;
    std::vector<std::string> setupFailures_;
    Values setupLayer_;
};

} // namespace

std::unique_ptr<Workload>
makeConfidentialRag(const WorkloadOptions &opt)
{
    return std::make_unique<ConfidentialRag>(opt);
}

} // namespace perfbench
