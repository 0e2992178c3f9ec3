/**
 * @file
 * Extension experiment: soft-error resilience of compressed code.
 *
 * Compressed instruction memory concentrates more program per bit, so a
 * radiation-induced upset destroys more instructions per event than in
 * native code — and the decoder may expand one flipped codeword bit
 * into many wrong instructions without noticing. This bench measures
 * that exposure and what per-block protection buys back: for every
 * benchmark profile it runs seeded upset campaigns (stream flips,
 * index-table flips, two-bit bursts; memfault.hh) against a working
 * in-memory image in four protection modes (none / CRC-8 / CRC-16 /
 * SEC-DED), routing every fetch through the SoftErrorDomain recovery
 * path, and reports detection coverage, the silent-corruption rate,
 * the modeled recovery latency, and the storage cost of the check bits.
 *
 * With any protection on, a silently wrong decode is a bench failure:
 * the detect-and-refetch path exists so no upset in this fault model
 * can reach the pipeline unnoticed.
 *
 * Override the per-kind trial count with CPS_SOFT_TRIALS (default 600:
 * 1800 upsets per protection mode, 7200 per profile).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codepack/resilience.hh"
#include "codepack/timing.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "fault/soft_campaign.hh"
#include "harness/suite.hh"
#include "mem/main_memory.hh"

using namespace cps;

namespace
{

constexpr ProtectKind kModes[] = {ProtectKind::None, ProtectKind::Crc8,
                                  ProtectKind::Crc16, ProtectKind::SecDed};
constexpr unsigned kNumModes = 4;

unsigned
trialsPerKind()
{
    const char *env = std::getenv("CPS_SOFT_TRIALS");
    if (env && *env) {
        unsigned long v = std::strtoul(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 600;
}

/** Storage overhead of @p kind on @p img, in percent of total bits. */
double
overheadPct(const codepack::CompressedImage &img, ProtectKind kind)
{
    codepack::CompressedImage copy = img;
    codepack::protectImage(copy, kind);
    u64 total = copy.comp.totalBits();
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(
                                    copy.comp.protectionBits) /
                            static_cast<double>(total);
}

/**
 * Modeled cycles to refetch one mean-sized block from backing store:
 * the detected-bad burst is discarded and re-read (main_memory.hh
 * defaults), then re-checked.
 */
double
refetchCycles(const codepack::CompressedImage &img,
              const codepack::DecompressorConfig &dcfg)
{
    MemTimingConfig mc;
    u64 bytes_total = 0;
    for (const codepack::BlockExtent &b : img.blocks)
        bytes_total += b.byteLen;
    double mean_bytes =
        img.blocks.empty()
            ? 0.0
            : static_cast<double>(bytes_total) / img.blocks.size();
    double beats = mean_bytes / mc.busBytes();
    return static_cast<double>(mc.firstAccess) +
           beats * static_cast<double>(mc.beatRate) + dcfg.eccCheckCycles;
}

/** Merges the "softerr" section into BENCH_simperf.json (no JSON
 *  parser: drop any previous softerr section, splice before the
 *  closing brace; a missing file gets a fresh schema-9 skeleton). */
bool
writeSoftErrJson(const std::string &section)
{
    const char *path = "BENCH_simperf.json";
    std::string base;
    {
        std::ifstream in(path);
        if (in) {
            std::ostringstream ss;
            ss << in.rdbuf();
            base = ss.str();
        }
    }
    size_t prev = base.find(",\n  \"softerr\":");
    if (prev != std::string::npos)
        base = base.substr(0, prev) + "\n}\n";
    size_t close = base.rfind('}');
    std::string out;
    if (base.empty() || close == std::string::npos ||
        base.find("\"schema\"") == std::string::npos) {
        out = "{\n  \"schema\": 9" + section + "\n}\n";
    } else {
        std::string head = base.substr(0, close);
        while (!head.empty() &&
               (head.back() == '\n' || head.back() == ' '))
            head.pop_back();
        out = head + section + "\n}\n";
    }
    std::ofstream outf(path, std::ios::trunc);
    if (!outf)
        return false;
    outf << out;
    return outf.good();
}

} // namespace

int
main()
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    const std::vector<std::string> &names = suite.names();
    unsigned trials = trialsPerKind();
    unsigned per_mode = trials * fault::kNumMemFaultKinds;

    // One campaign per (profile, protection mode); each touches only
    // its own working copy, so they fan out across the pool.
    std::vector<fault::SoftCampaignResult> results(names.size() *
                                                   kNumModes);
    {
        ThreadPool pool;
        pool.parallelFor(results.size(), [&](size_t k) {
            const BenchProgram &bench = suite.get(names[k / kNumModes]);
            fault::SoftCampaignConfig cfg;
            cfg.protect = kModes[k % kNumModes];
            cfg.trials = trials;
            results[k] = fault::runSoftCampaign(bench.image, cfg);
        });
    }

    TextTable t;
    t.setTitle(strfmt("Extension: soft-error coverage (%u upsets per "
                      "kind x %u kinds per mode)",
                      trials, fault::kNumMemFaultKinds));
    t.addHeader({"Bench", "Protection", "Upsets", "clean", "corrected",
                 "refetched", "detected", "silent-wrong", "silent-rate"});

    unsigned protected_silent = 0;
    unsigned none_silent = 0;
    unsigned none_upsets = 0;
    bool all_counted = true;
    fault::SoftCampaignResult secded_total;
    for (size_t i = 0; i < names.size(); ++i) {
        for (unsigned m = 0; m < kNumModes; ++m) {
            const fault::SoftCampaignResult &r =
                results[i * kNumModes + m];
            ProtectKind kind = kModes[m];
            t.addRow({m == 0 ? names[i] : "", protectKindName(kind),
                      std::to_string(r.trials),
                      std::to_string(r.count(fault::SoftOutcome::Clean)),
                      std::to_string(
                          r.count(fault::SoftOutcome::Corrected)),
                      std::to_string(
                          r.count(fault::SoftOutcome::Refetched)),
                      std::to_string(r.count(
                          fault::SoftOutcome::DetectedUnrecoverable)),
                      std::to_string(r.silentWrong()),
                      strfmt("%.2f%%", 100.0 * r.silentWrong() /
                                           (r.trials ? r.trials : 1))});
            all_counted = all_counted && r.trials == per_mode;
            if (kind == ProtectKind::None) {
                none_silent += r.silentWrong();
                none_upsets += r.trials;
            } else {
                protected_silent += r.silentWrong();
            }
            if (kind == ProtectKind::SecDed) {
                for (unsigned o = 0; o < fault::kNumSoftOutcomes; ++o)
                    secded_total.byOutcome[o] += r.byOutcome[o];
                secded_total.trials += r.trials;
            }
            if (r.silentWrong() > 0 && kind != ProtectKind::None)
                std::printf("  !! %s/%s first escape: %s\n",
                            names[i].c_str(), protectKindName(kind),
                            r.firstSilentWrong.describe().c_str());
        }
    }
    t.print();

    // Storage cost of the check bits, charged honestly into the
    // composition tables (comp.protectionBits).
    codepack::DecompressorConfig dcfg;
    TextTable c;
    c.setTitle("Protection storage and modeled recovery latency");
    c.addHeader({"Bench", "crc8 cost", "crc16 cost", "secded cost",
                 "check", "correct", "refetch"});
    double secded_cost_sum = 0.0;
    double refetch_sum = 0.0;
    for (const std::string &name : names) {
        const BenchProgram &bench = suite.get(name);
        double c8 = overheadPct(bench.image, ProtectKind::Crc8);
        double c16 = overheadPct(bench.image, ProtectKind::Crc16);
        double sd = overheadPct(bench.image, ProtectKind::SecDed);
        double rf = refetchCycles(bench.image, dcfg);
        secded_cost_sum += sd;
        refetch_sum += rf;
        c.addRow({name, strfmt("%.2f%%", c8), strfmt("%.2f%%", c16),
                  strfmt("%.2f%%", sd),
                  strfmt("%u cyc", dcfg.eccCheckCycles),
                  strfmt("+%u cyc", dcfg.eccCorrectCycles),
                  strfmt("%.1f cyc", rf)});
    }
    c.print();

    std::string section = strfmt(
        ",\n  \"softerr\": {\n"
        "    \"trials_per_kind\": %u,\n"
        "    \"upsets_per_profile\": %u,\n"
        "    \"profiles\": %zu,\n"
        "    \"none_upsets\": %u,\n"
        "    \"none_silent_wrong\": %u,\n"
        "    \"none_silent_rate\": %.6f,\n"
        "    \"protected_silent_wrong\": %u,\n"
        "    \"secded_upsets\": %u,\n"
        "    \"secded_corrected\": %u,\n"
        "    \"secded_refetched\": %u,\n"
        "    \"secded_detected\": %u,\n"
        "    \"secded_cost_pct_mean\": %.4f,\n"
        "    \"check_cycles\": %u,\n"
        "    \"correct_cycles\": %u,\n"
        "    \"refetch_cycles_mean\": %.2f\n"
        "  }",
        trials, per_mode * kNumModes, names.size(), none_upsets,
        none_silent,
        static_cast<double>(none_silent) /
            (none_upsets ? none_upsets : 1),
        protected_silent, secded_total.trials,
        secded_total.count(fault::SoftOutcome::Corrected),
        secded_total.count(fault::SoftOutcome::Refetched),
        secded_total.count(fault::SoftOutcome::DetectedUnrecoverable),
        secded_cost_sum / names.size(), dcfg.eccCheckCycles,
        dcfg.eccCorrectCycles, refetch_sum / names.size());
    if (!writeSoftErrJson(section))
        std::fprintf(stderr, "could not write BENCH_simperf.json\n");
    else
        std::printf("\nMerged \"softerr\" into BENCH_simperf.json.\n");

    std::printf("\nReading: unprotected compressed code decodes %u of "
                "%u upsets to wrong instructions with no error raised; "
                "with per-block protection on, every modeled upset is "
                "corrected in place, recovered by refetch, or refused "
                "loudly (%u silent escapes). SEC-DED buys single-bit "
                "correction for a ~12%% storage premium; the CRCs "
                "detect-only for 1-2 bytes per block.\n",
                none_silent, none_upsets, protected_silent);
    return (all_counted && protected_silent == 0) ? 0 : 1;
}
