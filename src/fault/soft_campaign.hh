/**
 * @file
 * Soft-error campaigns: upset a live in-memory image N seeded times per
 * fault kind and classify how the protected fetch path handles each.
 *
 * Where the encoded-image campaign (campaign.hh) attacks the .cpi
 * container before load, this one attacks the RAM of a running system:
 * each trial restores the working image to pristine, injects one upset
 * (memfault.hh), and fetches the affected group through a BlockFetcher
 * wired to a SoftErrorDomain — the exact detect/correct/refetch path
 * the simulator runs — then compares the decoded words against a
 * pristine reference.
 *
 * Outcomes, in decreasing order of comfort:
 *   Clean         the fetch verified clean and the words match (the
 *                 upset landed in bits the decode never consumed —
 *                 possible only without protection, whose checks cover
 *                 every stream byte)
 *   Corrected     SEC-DED repaired the upset in place
 *   Refetched     a check detected it and the refetch recovered
 *   DetectedUnrecoverable  detection persisted through the refetch
 *                 budget, or the checked decoder rejected the bytes —
 *                 loud, structured, no wrong words escaped
 *   SilentWrong   the fetch raised nothing and the words differ: the
 *                 failure mode this subsystem exists to kill. With any
 *                 protection kind on it must be zero.
 */

#ifndef CPS_FAULT_SOFT_CAMPAIGN_HH
#define CPS_FAULT_SOFT_CAMPAIGN_HH

#include "codepack/compressor.hh"
#include "codepack/resilience.hh"
#include "memfault.hh"

namespace cps
{
namespace fault
{

/** How one in-memory upset was handled by the protected fetch path. */
enum class SoftOutcome
{
    Clean,
    Corrected,
    Refetched,
    DetectedUnrecoverable,
    SilentWrong,
};

constexpr unsigned kNumSoftOutcomes = 5;

/** Column heading for an outcome. */
const char *softOutcomeName(SoftOutcome outcome);

/** Soft-error campaign parameters. */
struct SoftCampaignConfig
{
    /** Protection applied to the working image (None = baseline). */
    ProtectKind protect = ProtectKind::SecDed;
    unsigned trials = 600;   ///< upsets per fault kind sweep
    u64 seed = 0x5eed50f7;   ///< base seed; trial t uses seed + t
    unsigned maxRetries = 2; ///< refetch budget per detection
};

/** Aggregated soft-error campaign counts. */
struct SoftCampaignResult
{
    unsigned trials = 0;
    unsigned byOutcome[kNumSoftOutcomes] = {};
    unsigned byKindOutcome[kNumMemFaultKinds][kNumSoftOutcomes] = {};
    /** First silently-wrong upset, for replay (valid when any). */
    MemFaultRecord firstSilentWrong;
    /** Domain counters accumulated over the whole campaign. */
    codepack::SoftErrorDomain::Stats domainStats;

    unsigned
    count(SoftOutcome o) const
    {
        return byOutcome[static_cast<unsigned>(o)];
    }

    unsigned
    count(MemFaultKind k, SoftOutcome o) const
    {
        return byKindOutcome[static_cast<unsigned>(k)]
                            [static_cast<unsigned>(o)];
    }

    unsigned silentWrong() const
    {
        return count(SoftOutcome::SilentWrong);
    }

    /** Upsets the path either fixed or loudly refused to decode. */
    unsigned
    detectedOrRecovered() const
    {
        return count(SoftOutcome::Corrected) +
               count(SoftOutcome::Refetched) +
               count(SoftOutcome::DetectedUnrecoverable);
    }
};

/**
 * Runs cfg.trials upsets of every memory-fault kind against a working
 * copy of @p img protected per cfg (cfg.trials * kNumMemFaultKinds
 * upsets in total). @p img itself is never mutated; it provides the
 * pristine reference decode. Never aborts on any upset.
 */
SoftCampaignResult runSoftCampaign(const codepack::CompressedImage &img,
                                   const SoftCampaignConfig &cfg);

} // namespace fault
} // namespace cps

#endif // CPS_FAULT_SOFT_CAMPAIGN_HH
