#pragma once
/// \file sink.hpp
/// \brief Trace exporters: Chrome `trace_event` JSON (loadable in
/// Perfetto / chrome://tracing) and an aggregated metrics summary
/// (counters, per-category event totals, latency histograms) rendered
/// with core::Table for the report appendix.
///
/// Both walk the session's scope buffers in deterministic (label,
/// occurrence) order — see `Session::ordered()` — so every export is
/// byte-identical across `--jobs` values and across runs.

#include <string>

#include "trace/trace.hpp"

namespace nodebench::trace {

/// Full Chrome `trace_event` JSON document for the session: one process
/// per scope (named by its label via "process_name" metadata), one thread
/// per actor lane ("rank 0", "device 1", "link 3", "node 0"), numbered in
/// sorted lane order, and events as complete ("X") slices with `%.3f`
/// microsecond timestamps and {peer, bytes} args. Written in one pass
/// into one buffer.
[[nodiscard]] std::string chromeJson(const Session& session);

/// Metrics-appendix text for the session: per-scope event counts and busy
/// time by category, named counters, and histogram summaries (count, min,
/// mean, ~p50, ~p99, max). Scopes with nothing recorded are omitted, so a
/// table stays readable.
[[nodiscard]] std::string metricsSummary(const Session& session);

}  // namespace nodebench::trace
