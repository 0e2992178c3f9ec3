#include "soft_campaign.hh"

#include "codepack/block_fetcher.hh"
#include "codepack/decompressor.hh"
#include "common/logging.hh"

namespace cps
{
namespace fault
{

using codepack::BlockFetcher;
using codepack::CompressedImage;
using codepack::DecodedBlock;
using codepack::Decompressor;
using codepack::FetchCheck;
using codepack::kBlocksPerGroup;
using codepack::SoftErrorDomain;

const char *
softOutcomeName(SoftOutcome outcome)
{
    switch (outcome) {
      case SoftOutcome::Clean:
        return "clean";
      case SoftOutcome::Corrected:
        return "corrected";
      case SoftOutcome::Refetched:
        return "refetched";
      case SoftOutcome::DetectedUnrecoverable:
        return "detected";
      case SoftOutcome::SilentWrong:
        return "silent-wrong";
    }
    return "unknown";
}

namespace
{

FetchCheck
worse(FetchCheck a, FetchCheck b)
{
    return static_cast<u8>(a) >= static_cast<u8>(b) ? a : b;
}

} // namespace

SoftCampaignResult
runSoftCampaign(const CompressedImage &img, const SoftCampaignConfig &cfg)
{
    cps_assert(img.numBlocks() > 0, "soft campaign needs a real image");

    // Reference decode of every block from the pristine image, so each
    // trial's comparison is a plain word-array check.
    Decompressor ref(img);
    std::vector<DecodedBlock> reference(img.numBlocks());
    for (u32 f = 0; f < img.numBlocks(); ++f)
        reference[f] = ref.decompressFlatBlock(f);

    // The working image is what the "memory system" serves; protect it
    // per the campaign mode. Its decode is bit-identical to the
    // pristine image (protection lives in side arrays).
    CompressedImage working = img;
    codepack::protectImage(working, cfg.protect);
    const std::vector<u8> pristine_bytes = working.bytes;
    const std::vector<u32> pristine_index = working.indexTable;

    SoftErrorDomain domain(working, cfg.seed ^ 0xd0117a11ull,
                           /*flip_rate_ppm=*/0, cfg.maxRetries);
    Decompressor decomp(working);

    SoftCampaignResult res;
    for (unsigned ki = 0; ki < kNumMemFaultKinds; ++ki) {
        MemFaultKind kind = kAllMemFaultKinds[ki];
        for (unsigned t = 0; t < cfg.trials; ++t) {
            working.bytes = pristine_bytes;
            working.indexTable = pristine_index;
            domain.noteCorruption();

            MemoryFaultInjector inj(working, cfg.seed + t);
            MemFaultRecord rec = inj.inject(kind);
            domain.noteCorruption();

            // A fresh fetcher per trial: an unprotected run must not be
            // saved by a stale pristine copy cached from a prior trial.
            BlockFetcher fetcher(decomp, BlockFetcher::Options{}, &domain);
            FetchCheck check = FetchCheck::Clean;
            bool refused = false;
            bool wrong = false;
            u32 base = rec.group * kBlocksPerGroup;
            for (u32 b = 0; b < kBlocksPerGroup &&
                            base + b < working.numBlocks();
                 ++b) {
                u32 flat = base + b;
                Result<const DecodedBlock *> r = fetcher.tryGetFlat(flat);
                if (!r) {
                    refused = true;
                    break;
                }
                check = worse(check, fetcher.lastCheck());
                if ((*r)->words != reference[flat].words)
                    wrong = true;
            }

            SoftOutcome o;
            if (refused) {
                o = SoftOutcome::DetectedUnrecoverable;
            } else if (wrong) {
                // Wrong words with no error raised — including a
                // SEC-DED miscorrection — is silent corruption.
                o = SoftOutcome::SilentWrong;
                if (res.silentWrong() == 0)
                    res.firstSilentWrong = rec;
            } else if (check == FetchCheck::Corrected) {
                o = SoftOutcome::Corrected;
            } else if (check == FetchCheck::Refetched) {
                o = SoftOutcome::Refetched;
            } else {
                o = SoftOutcome::Clean;
            }
            ++res.byOutcome[static_cast<unsigned>(o)];
            ++res.byKindOutcome[ki][static_cast<unsigned>(o)];
            ++res.trials;
        }
    }
    res.domainStats = domain.stats();
    return res;
}

} // namespace fault
} // namespace cps
