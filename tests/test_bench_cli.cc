/**
 * @file
 * The bench CLIs' flag table (`bench/bench_util.hh`): rows write
 * straight into the serve policies, the help text's defaults match a
 * default-built `serve::ServerConfig`, and every malformed operand
 * ends through `cllm_fatal` naming its flag.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

using namespace cllm;

namespace {

/** Run parseFlags over `args` (argv[0] is supplied). */
void
parse(const bench::FlagTable &table, std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    bench::parseFlags(static_cast<int>(argv.size()), argv.data(), table);
}

/** The serve_slo/fleet_capacity shared rows, bound to `cfg`. */
struct Bound
{
    serve::ServerConfig cfg;
    serve::SharedPrefixMix mix;
    bench::ObsOptions obs;
    std::uint64_t seed = 1;
    bool faults = false;
    bench::FlagTable table{
        "usage: bench\n\n",
        bench::joinFlags(
            {
                {"--faults", "[seed]", "fault mode", &seed, {}, &faults},
                {"--kv", "mode", "KV discipline", &cfg.kvMode},
                bench::prefixModeFlag(cfg.prefixMode),
            },
            bench::prefixMixFlags(mix),
            bench::chunkFlags(cfg.chunkedPrefill),
            bench::specFlags(cfg.specDecode), bench::obsFlags(obs))};
};

} // namespace

TEST(BenchCli, HelpDefaultsMatchDefaultBuiltConfig)
{
    Bound b;
    const serve::ServerConfig def;
    const serve::SharedPrefixMix mix;
    // The fields the table is bound to start at the serve defaults...
    EXPECT_EQ(b.cfg.chunkedPrefill.chunkTokens,
              def.chunkedPrefill.chunkTokens);
    EXPECT_EQ(b.cfg.specDecode.draftTokens, def.specDecode.draftTokens);
    EXPECT_EQ(b.mix.tenants, mix.tenants);
    // ...and every "(default X)" in the help text states that value.
    std::size_t checked = 0;
    for (const bench::Flag &f : b.table.flags) {
        const std::string help = f.help;
        const auto at = help.find("(default ");
        if (at == std::string::npos)
            continue;
        const double stated = std::strtod(help.c_str() + at + 9, nullptr);
        double actual = 0.0;
        if (auto *u = std::get_if<unsigned *>(&f.field))
            actual = **u;
        else if (auto *d = std::get_if<double *>(&f.field))
            actual = **d;
        else
            ADD_FAILURE() << f.name << " states a non-numeric default";
        EXPECT_EQ(stated, actual) << f.name;
        ++checked;
    }
    EXPECT_EQ(checked, 7u);
}

TEST(BenchCli, NoArgumentsLeaveTheDefaults)
{
    Bound b;
    parse(b.table, {});
    const serve::ServerConfig def;
    EXPECT_EQ(b.cfg.kvMode, def.kvMode);
    EXPECT_EQ(b.cfg.prefixMode, def.prefixMode);
    EXPECT_EQ(b.cfg.chunkedPrefill.mode, def.chunkedPrefill.mode);
    EXPECT_EQ(b.cfg.chunkedPrefill.stepTokenBudget,
              def.chunkedPrefill.stepTokenBudget);
    EXPECT_EQ(b.cfg.specDecode.enabled, def.specDecode.enabled);
    EXPECT_EQ(b.cfg.specDecode.draftCostRatio,
              def.specDecode.draftCostRatio);
    EXPECT_EQ(b.cfg.specDecode.acceptProb, def.specDecode.acceptProb);
    EXPECT_FALSE(b.faults);
    EXPECT_FALSE(b.obs.trace);
}

TEST(BenchCli, RowsWriteStraightIntoThePolicies)
{
    Bound b;
    parse(b.table,
          {"--kv", "paged", "--prefix", "global", "--prefix-tenants", "3",
           "--prefix-len", "0", "--prefix-share", "0.5", "--chunk",
           "prefill", "--chunk-tokens", "128", "--chunk-budget", "300",
           "--spec", "--spec-k", "6", "--spec-ratio", "0.2",
           "--spec-accept", "1", "--trace", "--metrics-out", "m.json",
           "--faults", "18446744073709551615"});
    EXPECT_EQ(b.cfg.kvMode, serve::KvMode::Paged);
    EXPECT_EQ(b.cfg.prefixMode, serve::PrefixMode::Global);
    EXPECT_EQ(b.mix.tenants, 3u);
    EXPECT_EQ(b.mix.prefixLen, 0u);
    EXPECT_EQ(b.mix.sharedFraction, 0.5);
    EXPECT_EQ(b.cfg.chunkedPrefill.mode, serve::ChunkMode::PrefillPriority);
    EXPECT_EQ(b.cfg.chunkedPrefill.chunkTokens, 128u);
    EXPECT_EQ(b.cfg.chunkedPrefill.stepTokenBudget, 300u);
    EXPECT_TRUE(b.cfg.specDecode.enabled);
    EXPECT_EQ(b.cfg.specDecode.draftTokens, 6u);
    EXPECT_EQ(b.cfg.specDecode.draftCostRatio, 0.2);
    EXPECT_EQ(b.cfg.specDecode.acceptProb, 1.0);
    // An optional operand is not taken from the next flag.
    EXPECT_TRUE(b.obs.trace);
    EXPECT_EQ(b.obs.tracePath, "");
    EXPECT_EQ(b.obs.metricsOut, "m.json");
    EXPECT_TRUE(b.faults);
    EXPECT_EQ(b.seed, UINT64_MAX);
}

TEST(BenchCli, OptionalOperandIsTakenWhenPresent)
{
    Bound b;
    parse(b.table, {"--faults", "--trace", "out.json"});
    EXPECT_TRUE(b.faults);
    EXPECT_EQ(b.seed, 1u);
    EXPECT_TRUE(b.obs.trace);
    EXPECT_EQ(b.obs.tracePath, "out.json");
}

TEST(BenchCli, UsageWrapsLongHeadsOntoTheirOwnLine)
{
    bool on = false;
    unsigned n = 0;
    const bench::FlagTable table{
        "usage: x\n\n",
        {{"--on", "", "a switch\nsecond line", &on},
         {"--a-rather-long-flag", "<choice>", "own line", &n}}};
    std::ostringstream os;
    bench::printUsage(os, table);
    EXPECT_EQ(os.str(), "usage: x\n\n"
                        "  --on                a switch\n"
                        "                      second line\n"
                        "  --a-rather-long-flag <choice>\n"
                        "                      own line\n");
}

TEST(BenchCliDeath, NonNumericOperandIsFatal)
{
    Bound b;
    EXPECT_EXIT(parse(b.table, {"--chunk-tokens", "abc"}),
                ::testing::ExitedWithCode(1),
                "--chunk-tokens expects an integer");
    EXPECT_EXIT(parse(b.table, {"--chunk-tokens", "12x"}),
                ::testing::ExitedWithCode(1),
                "--chunk-tokens expects an integer");
    EXPECT_EXIT(parse(b.table, {"--spec-ratio", "0.2x"}),
                ::testing::ExitedWithCode(1),
                "--spec-ratio expects a finite number");
    EXPECT_EXIT(parse(b.table, {"--faults", "abc"}),
                ::testing::ExitedWithCode(1),
                "--faults expects an integer");
}

TEST(BenchCliDeath, NegativeUnsignedOperandIsFatal)
{
    Bound b;
    EXPECT_EXIT(parse(b.table, {"--chunk-tokens", "-1"}),
                ::testing::ExitedWithCode(1),
                "--chunk-tokens expects an integer");
    EXPECT_EXIT(parse(b.table, {"--prefix-len", "-5"}),
                ::testing::ExitedWithCode(1),
                "--prefix-len expects an integer");
}

TEST(BenchCliDeath, UnsignedOperandAboveUintMaxIsFatal)
{
    Bound b;
    EXPECT_EXIT(parse(b.table, {"--chunk-budget", "4294967296"}),
                ::testing::ExitedWithCode(1),
                "--chunk-budget expects an integer in \\[0, 4294967295\\]");
    EXPECT_EXIT(parse(b.table, {"--spec-k", "1e99"}),
                ::testing::ExitedWithCode(1),
                "--spec-k expects an integer");
}

TEST(BenchCliDeath, NonFiniteDoubleIsFatal)
{
    Bound b;
    EXPECT_EXIT(parse(b.table, {"--spec-ratio", "nan"}),
                ::testing::ExitedWithCode(1),
                "--spec-ratio expects a finite number, got 'nan'");
    EXPECT_EXIT(parse(b.table, {"--spec-accept", "nan"}),
                ::testing::ExitedWithCode(1),
                "--spec-accept expects a finite number");
    EXPECT_EXIT(parse(b.table, {"--prefix-share", "inf"}),
                ::testing::ExitedWithCode(1),
                "--prefix-share expects a finite number");
    EXPECT_EXIT(parse(b.table, {"--spec-ratio", "1e999"}),
                ::testing::ExitedWithCode(1),
                "--spec-ratio expects a finite number");
}

TEST(BenchCliDeath, OutOfRangeOperandIsFatal)
{
    Bound b;
    EXPECT_EXIT(parse(b.table, {"--chunk-tokens", "0"}),
                ::testing::ExitedWithCode(1),
                "--chunk-tokens must be at least 1");
    EXPECT_EXIT(parse(b.table, {"--spec-ratio", "1"}),
                ::testing::ExitedWithCode(1),
                "--spec-ratio outside \\(0, 1\\)");
    EXPECT_EXIT(parse(b.table, {"--spec-accept", "-0.1"}),
                ::testing::ExitedWithCode(1),
                "--spec-accept outside \\[0, 1\\]");
}

TEST(BenchCliDeath, MissingOperandIsFatal)
{
    Bound b;
    EXPECT_EXIT(parse(b.table, {"--chunk-tokens"}),
                ::testing::ExitedWithCode(1),
                "--chunk-tokens needs an operand \\(N\\)");
    EXPECT_EXIT(parse(b.table, {"--chunk", "sideways"}),
                ::testing::ExitedWithCode(1), "sideways");
}

TEST(BenchCliDeath, UnknownArgumentExitsTwoWithUsage)
{
    Bound b;
    EXPECT_EXIT(parse(b.table, {"--spec", "--bogus"}),
                ::testing::ExitedWithCode(2),
                "unknown argument '--bogus'\nusage: bench");
}

TEST(BenchCliDeath, HelpExitsZero)
{
    Bound b;
    EXPECT_EXIT(parse(b.table, {"--chunk-tokens", "8", "-h"}),
                ::testing::ExitedWithCode(0), "");
}
