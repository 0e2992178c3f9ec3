/**
 * @file
 * Extension experiment: fault coverage of the hardened decode path.
 *
 * Embedded flash is subject to bit errors and interrupted programming;
 * a production decompressor must turn any such corruption into a
 * diagnosable rejection, never a crash or a silent wrong decode. This
 * bench sweeps seeded corruptions (bit flips, byte rewrites,
 * truncations, index-entry scribbles) over every benchmark profile's
 * compressed image and reports how each one was handled, with section
 * CRCs verified at load and again with CRCs disabled (isolating the
 * decode path's own structural defences). It also measures what the
 * CRC verification costs at load time.
 *
 * Override the per-kind trial count with CPS_FAULT_TRIALS (default 200,
 * i.e. 1000 corruptions per profile per CRC mode).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <vector>

#include "codepack/imagefile.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "fault/campaign.hh"
#include "harness/suite.hh"

using namespace cps;

namespace
{

unsigned
trialsPerKind()
{
    return static_cast<unsigned>(envUnsigned(
        "CPS_FAULT_TRIALS", 200, 1, UINT32_MAX, "a positive integer"));
}

void
addCampaignRows(TextTable &t, const std::string &name,
                const fault::CampaignResult &res, const char *mode)
{
    t.addRow({name, mode, std::to_string(res.trials),
              std::to_string(res.count(fault::Outcome::DetectedAtLoad)),
              std::to_string(
                  res.count(fault::Outcome::RejectedInDecode)),
              std::to_string(res.count(fault::Outcome::SilentlyCorrect)),
              std::to_string(res.silentlyWrong())});
}

/** Mean decode time of @p bytes over @p iters runs, in microseconds. */
double
loadMicros(const std::vector<u8> &bytes, bool verify_crc, int iters)
{
    codepack::ImageLoadOptions opts;
    opts.verifyCrc = verify_crc;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        auto img = codepack::decodeImageChecked(bytes, opts);
        if (!img)
            cps_fatal("pristine image failed to load: %s",
                      img.error().describe().c_str());
    }
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(end - start)
               .count() /
           iters;
}

} // namespace

int
main()
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    const std::vector<std::string> &names = suite.names();
    unsigned trials = trialsPerKind();

    TextTable t;
    t.setTitle(strfmt("Extension: fault coverage (%u corruptions per "
                      "fault kind, %u kinds)",
                      trials, fault::kNumFaultKinds));
    t.addHeader({"Bench", "CRC", "Corruptions", "detected@load",
                 "rejected", "benign", "silently-wrong"});

    // Each profile runs two campaigns (CRC on / CRC off); the campaigns
    // are seeded and touch only private copies of the encoded image, so
    // they fan out across the pool — one task per (profile, CRC mode).
    std::vector<fault::CampaignResult> withCrc(names.size());
    std::vector<fault::CampaignResult> noCrc(names.size());
    {
        ThreadPool pool;
        pool.parallelFor(names.size() * 2, [&](size_t k) {
            size_t i = k / 2;
            const BenchProgram &bench = suite.get(names[i]);
            fault::CampaignConfig cfg;
            cfg.trials = trials;
            if (k % 2 == 0) {
                withCrc[i] = fault::runCampaign(bench.image, cfg);
            } else {
                cfg.verifyCrc = false;
                noCrc[i] = fault::runCampaign(bench.image, cfg);
            }
        });
    }

    unsigned total_silent_crc = 0;
    bool all_handled = true;
    for (size_t i = 0; i < names.size(); ++i) {
        const fault::CampaignResult &with_crc = withCrc[i];
        addCampaignRows(t, names[i], with_crc, "on");
        total_silent_crc += with_crc.silentlyWrong();
        addCampaignRows(t, "", noCrc[i], "off");

        all_handled = all_handled &&
                      with_crc.count(fault::Outcome::DetectedAtLoad) +
                              with_crc.count(
                                  fault::Outcome::RejectedInDecode) +
                              with_crc.count(
                                  fault::Outcome::SilentlyCorrect) +
                              with_crc.silentlyWrong() ==
                          with_crc.trials;
    }
    t.print();

    // CRC cost at load time, on the largest image of the suite.
    const BenchProgram *largest = nullptr;
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        if (!largest ||
            bench.image.bytes.size() > largest->image.bytes.size())
            largest = &bench;
    }
    std::vector<u8> encoded = codepack::encodeImage(largest->image);
    double with = loadMicros(encoded, true, 50);
    double without = loadMicros(encoded, false, 50);

    TextTable c;
    c.setTitle(strfmt("CRC-32 load-time overhead (%s, %zu-byte file, "
                      "mean of 50 loads)",
                      largest->profile->name.c_str(), encoded.size()));
    c.addHeader({"Verification", "Load time", "Overhead"});
    c.addRow({"CRC off", strfmt("%.1f us", without), "-"});
    c.addRow({"CRC on", strfmt("%.1f us", with),
              strfmt("%+.1f%%", 100.0 * (with - without) /
                                    (without > 0 ? without : 1.0))});
    c.print();

    std::printf("\nReading: with section CRCs every corruption is "
                "caught before it can matter (%u silently wrong); "
                "without them the structural checks still reject "
                "out-of-range indices and truncations, and only "
                "in-stream codeword damage decodes to wrong words — "
                "exactly the gap the CRC closes. No corruption "
                "crashed the decoder.\n",
                total_silent_crc);
    return (all_handled && total_silent_crc == 0) ? 0 : 1;
}
