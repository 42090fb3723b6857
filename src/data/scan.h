// The complete histogram h(D) counted from a columnar table.
//
// Not on the serving path: the engine counts h(D) once per engine with
// `Dataset::CompleteHistogram`. This kernel remains for the loopback
// benchmark's per-layer scan timing.

#ifndef BLOWFISH_DATA_SCAN_H_
#define BLOWFISH_DATA_SCAN_H_

#include "data/columnar.h"
#include "util/histogram.h"
#include "util/status.h"

namespace blowfish {

/// The complete histogram h(D) computed from columns. Bit-identical to
/// `Dataset::CompleteHistogram`, including the refusal (same status,
/// same message) for domains too large to materialize.
StatusOr<Histogram> ScanCompleteHistogram(const ColumnarTable& table);

}  // namespace blowfish

#endif  // BLOWFISH_DATA_SCAN_H_
