// Correctness checks. A run fails on any miss:
//   1. every response is OK;
//   2. each tenant's wire responses equal an in-process replay of the
//      same batches, in charge_id order, on a fresh host at the same seed
//      (values, sensitivities, statuses, receipts — not cache_hit);
//   3. per session, the sum of receipt `charged` equals budget minus the
//      HEALTH remaining-budget gauge, exactly;
//   4. VerifyAuditReplay rebuilds each tenant's ledger from the audit log;
//   5. noise_calibrated: histogram / cell_histogram answers sit in the
//      Laplace band (mean |released - exact| / (S/eps) ~ 1), and every
//      other kind's answers in the band recorded for it (kRecordedErr).

#ifndef WIREBENCH_VERIFY_H_
#define WIREBENCH_VERIFY_H_

#include <string>
#include <vector>

#include "drive.h"
#include "fixture.h"
#include "workload.h"

namespace wirebench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Checks 1, 3, 4 and 5 on a finished phase and the host it ran on.
std::vector<Check> CheckPhase(const Workload& w, const PhaseResult& p,
                              ServedHost& host);

/// What the replay measured besides equality, per replayed batch.
struct ReplayExtras {
  /// Codec time per re-encoded batch (every eighth of each tenant's):
  /// EncodeBoundedResultPayload + EncodeFrame + FrameDecoder +
  /// ParseResultPayload over the batch's responses.
  std::vector<double> codec_us;
  /// RESULT frame bytes of the re-encoded batches, all and in frames
  /// over 16 KiB.
  double result_bytes = 0.0;
  double large_frame_bytes = 0.0;
  /// Batches replayed.
  size_t batches = 0;
};

/// Check 2: replays every batch of `p` on `fresh` (already set up, so its
/// warm-up batches match the measured host's) and compares digests.
/// `measured_warmup` is the measured host's warm-up responses.
Check CheckReplay(
    const Workload& w, const PhaseResult& p,
    const std::vector<std::vector<blowfish::QueryResponse>>& measured_warmup,
    ServedHost& fresh, ReplayExtras* extras);

/// The mean err_ratio of each (workload, kind) whose noise is not a
/// plain Laplace histogram, as recorded on this commit (runs of 12 s:
/// tenant_mix range 0.75-0.77, hier_range 1.56-1.59, wavelet_range
/// 17.5-17.9, cdf 0.49-0.51; quadtree 187-208; cold_shapes range
/// 0.44-0.52). A run fails when a kind's mean leaves
/// [kErrBandLow, kErrBandHigh] times its recorded value, or when a kind
/// has no recorded value: a change that keeps the answer distribution
/// stays inside, one that shrinks the noise by a quarter falls out.
struct RecordedErr {
  const char* workload;
  const char* kind;
  double err_ratio;
};
constexpr RecordedErr kRecordedErr[] = {
    {"tenant_mix", "range", 0.76},
    {"tenant_mix", "hier_range", 1.57},
    {"tenant_mix", "wavelet_range", 17.7},
    {"tenant_mix", "cdf", 0.50},
    {"spatial_pipeline", "quadtree", 200.0},
    {"cold_shapes", "range", 0.48},
};
constexpr double kErrBandLow = 0.75;
constexpr double kErrBandHigh = 1.35;

}  // namespace wirebench

#endif  // WIREBENCH_VERIFY_H_
