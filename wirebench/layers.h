// The traced run's layer breakdown. After the traced wire phase, the
// same batches are replayed one layer down at a time — each replay on
// fresh state, timed from outside around public calls:
//
//   host    EngineHost::SubmitBatch until the batch's future is claimed,
//           at the workload's client threads, connections and pipeline
//           depths — claimed oldest first, as the wire client claims its
//           batches, so a done batch's wait for its client to claim older
//           ones is in both the wire and the host time;
//   engine  ReleaseEngine::ServeBatch as a task on the shared pool, same
//           pattern, from the task's start until the batch is claimed;
//   serial  ReleaseEngine::ServeBatch one batch at a time, with an
//           on_complete hook and a trailing sentinel query that fails
//           Validate — refused queries complete right after admission,
//           so the hook splits the call into admit / execute / settle;
//   ops     QueryOp::ComputeSensitivity per distinct shape and
//           QueryOp::Execute on the exact histogram, sampled per kind;
//   budget  BudgetAccountant::ChargeSequential + Settle over the run's
//           charges;
//   data    ReleaseEngine::Create and ScanCompleteHistogram per tenant.
//
// The replayed batches are those the traced phase submitted in its first
// half, but at most in its first eight seconds.
//
// Per batch the layers' times are wire - host (net), host - engine
// (server queue), engine - serial (engine serialization, including the
// claim wait), and the serial call's admit / execute / settle; they
// telescope to the wire latency.
// For the mean batch each cumulative time is also capped by the one
// above it, so its self times are non-negative and sum to the mean wire
// latency; the report says how much replayed time the caps removed.

#ifndef WIREBENCH_LAYERS_H_
#define WIREBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "drive.h"
#include "workload.h"

namespace wirebench {

/// Self-time layers, outermost first; their per-batch values sum to the
/// wire latency.
constexpr const char* kSelfLayers[] = {
    "net.self",       "server.queue",   "engine.serial_wait",
    "engine.admit",   "engine.execute", "engine.settle"};
constexpr size_t kNumSelfLayers = 6;

struct LayerReport {
  /// Batches replayed.
  size_t batches = 0;
  /// Per layer, per replayed batch: wire - host, host - engine,
  /// engine - serial, and the serial call's admit / execute / settle
  /// milliseconds (the *_p50 metrics). They sum to the batch's wire time;
  /// a difference is negative when a replay ran slower than the layer
  /// above it.
  std::vector<double> self_ms[kNumSelfLayers];
  std::vector<double> wire_ms;
  /// The self times of the mean replayed batch, each cumulative time
  /// capped by the one above it: non-negative, summing to mean_wire_ms;
  /// mean_capped_ms is the replayed time the caps removed.
  double mean_self_ms[kNumSelfLayers] = {0, 0, 0, 0, 0, 0};
  double mean_wire_ms = 0.0;
  double mean_capped_ms = 0.0;
  /// kind -> sampled QueryOp::Execute microseconds.
  std::map<std::string, std::vector<double>> execute_us;
  std::vector<double> sensitivity_ms;
  double charge_us = 0.0;
  size_t charges = 0;
  double engine_create_ms = 0.0;
  double scan_ms = 0.0;
  /// PhaseResult::batches index of each replayed batch (parallel to the
  /// self_ms / wire_ms vectors).
  std::vector<size_t> batch_index;
  std::string error;
};

/// Replays `traced`'s early batches; replay audit logs go under `dir`.
LayerReport RunLayers(const Workload& w, const std::vector<TenantTruth>& truth,
                      const PhaseResult& traced, uint64_t seed,
                      const std::string& dir);

}  // namespace wirebench

#endif  // WIREBENCH_LAYERS_H_
