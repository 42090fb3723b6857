// Textual batch request files for the ReleaseEngine.
//
// One request per line: `<kind> key=value key=value ...`. Comments (#)
// and blank lines are ignored; parsing is strict (unknown kinds or keys
// are errors). The set of kinds is whatever the QueryOpRegistry holds —
// the parser owns only the envelope keys, common to every kind:
//
//   eps=      privacy parameter
//   label=    response label
//   session=  budget session to charge
//   group=    parallel-composition group (see engine/release_engine.h)
//
// Everything else on the line is handed to the kind's own
// QueryOp::Parse. Built-in kinds and their keys (each documented in its
// file under src/engine/ops/):
//
//   histogram       eps= [label=] [session=]
//   cell_histogram  eps= cells=0,3,7 [group=] [label=] [session=]
//   range           eps= lo= hi= [label=] [session=]
//   cdf             eps= [label=] [session=]
//   quantiles       eps= [qs=0.25,0.5,0.75] [label=] [session=]
//   kmeans          eps= [k=] [iters=] [label=] [session=]
//   mean            eps= [label=] [session=]
//   wavelet_range   eps= lo= hi= [label=] [session=]
//   quadtree        eps= x0= x1= y0= y1= [depth=] [label=] [session=]
//   hier_range      eps= lo= hi= [fanout=] [eps_s_fraction=]
//                   [consistency=] [label=] [session=]
//
// `blowfish_cli <kind> --key value ...` builds one such request from its
// flags and serves it as a one-request batch.

#ifndef BLOWFISH_ENGINE_BATCH_REQUEST_H_
#define BLOWFISH_ENGINE_BATCH_REQUEST_H_

#include <string>
#include <utility>
#include <vector>

#include "engine/release_engine.h"
#include "util/status.h"

namespace blowfish {

/// Parses a batch request file (see the header comment for the grammar).
StatusOr<std::vector<QueryRequest>> ParseBatchRequests(
    const std::string& text);

/// Builds one request programmatically through the registry — the same
/// path as the batch parser, so tests and embedders exercise exactly
/// the grammar a request file would. `kv` holds op-specific keys and may
/// also carry envelope keys (label/session/group, or eps, which
/// overrides `epsilon`).
///
///   MakeQueryRequest("range", 0.4, {{"lo", "10"}, {"hi", "40"}})
StatusOr<QueryRequest> MakeQueryRequest(
    const std::string& kind, double epsilon,
    const std::vector<std::pair<std::string, std::string>>& kv = {});

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_BATCH_REQUEST_H_
