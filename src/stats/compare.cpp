#include "stats/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/table.hpp"

namespace nodebench::stats {

namespace {

std::string joinKey(std::string_view machine, std::string_view cell,
                    std::string_view quantity) {
  std::string key;
  key.reserve(machine.size() + cell.size() + quantity.size() + 2);
  key.append(machine);
  key.push_back('\x1f');
  key.append(cell);
  key.push_back('\x1f');
  key.append(quantity);
  return key;
}

using RecordIndex = std::map<std::string, const SampleRecord*, std::less<>>;

RecordIndex indexRecords(const StoreContents& store) {
  RecordIndex index;
  for (const SampleRecord& r : store.records) {
    // First occurrence wins.
    index.emplace(joinKey(r.machine, r.cell, r.quantity), &r);
  }
  return index;
}

/// Every configuration field that differs (jobs excluded), as
/// human-readable notes. Unlike the resume path this does not refuse:
/// comparing across a fault plan or seed change is the tool's whole
/// point, but the reader must see what changed.
std::vector<std::string> configNotes(const campaign::CampaignConfig& base,
                                     const campaign::CampaignConfig& cand) {
  std::vector<std::string> notes;
  const auto hex = [](std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  const auto note = [&](const std::string& param, const std::string& was,
                        const std::string& now) {
    notes.push_back("note: " + param + " differs between the stores (" +
                    was + " in the baseline, " + now + " in the candidate)");
  };
  if (base.registryHash != cand.registryHash) {
    note("the machine registry", hex(base.registryHash),
         hex(cand.registryHash));
  }
  if (base.faultPlanHash != cand.faultPlanHash) {
    note("the fault plan (--faults)", hex(base.faultPlanHash),
         hex(cand.faultPlanHash));
  }
  if (base.seed != cand.seed) {
    note("the fault-plan seed", std::to_string(base.seed),
         std::to_string(cand.seed));
  }
  if (base.runs != cand.runs) {
    note("--runs", std::to_string(base.runs), std::to_string(cand.runs));
  }
  if (base.cellRetries != cand.cellRetries) {
    note("the cell retry budget", std::to_string(base.cellRetries),
         std::to_string(cand.cellRetries));
  }
  if (base.cpuArrayBytes != cand.cpuArrayBytes) {
    note("the CPU array size (bytes)", std::to_string(base.cpuArrayBytes),
         std::to_string(cand.cpuArrayBytes));
  }
  if (base.gpuArrayBytes != cand.gpuArrayBytes) {
    note("the GPU array size (bytes)", std::to_string(base.gpuArrayBytes),
         std::to_string(cand.gpuArrayBytes));
  }
  if (base.mpiMessageSize != cand.mpiMessageSize) {
    note("the MPI message size (bytes)", std::to_string(base.mpiMessageSize),
         std::to_string(cand.mpiMessageSize));
  }
  return notes;
}

CellComparison compareCell(const SampleRecord* base, const SampleRecord* cand,
                           const CompareOptions& opt) {
  const SampleRecord& any = base != nullptr ? *base : *cand;
  CellComparison out;
  out.machine = any.machine;
  out.cell = any.cell;
  out.quantity = any.quantity;
  out.unit = any.unit;
  out.better = any.better;

  if (base != nullptr) {
    out.baseline = base->summary;
  }
  if (cand != nullptr) {
    out.candidate = cand->summary;
  }
  if (base == nullptr) {
    out.verdict = Verdict::CandidateOnly;
    return out;
  }
  if (cand == nullptr) {
    out.verdict = Verdict::BaselineOnly;
    return out;
  }
  if (base->samples.size() < 2 || cand->samples.size() < 2 ||
      base->summary.mean == 0.0) {
    out.verdict = Verdict::Insufficient;
    return out;
  }

  out.deltaPct = (cand->summary.mean - base->summary.mean) /
                 std::fabs(base->summary.mean) * 100.0;
  out.welch = welchTTest(base->samples, cand->samples);
  out.mw = mannWhitneyU(base->samples, cand->samples);
  out.cliffsDelta = stats::cliffsDelta(base->samples, cand->samples);

  const bool significant = out.welch.p < opt.alpha && out.mw.p < opt.alpha;
  const bool material = std::fabs(out.deltaPct) >= opt.thresholdPct;
  if (!significant || !material) {
    out.verdict = Verdict::Unchanged;
    return out;
  }
  const bool worse = (out.better == Better::Lower && out.deltaPct > 0.0) ||
                     (out.better == Better::Higher && out.deltaPct < 0.0);
  out.verdict = worse ? Verdict::Regression : Verdict::Improvement;
  return out;
}

std::string formatP(double p) {
  if (p < 0.0001) {
    return "<0.0001";
  }
  return formatFixed(p, 4);
}

std::string formatMeanCi(const Summary& s, const BootstrapCi& ci) {
  if (s.count == 0) {
    return "-";
  }
  std::string out = formatFixed(s.mean, 4);
  if (ci.resamples > 0) {
    out += " [" + formatFixed(ci.lo, 4) + ", " + formatFixed(ci.hi, 4) + "]";
  }
  return out;
}

std::string verdictCell(const CellComparison& c, double alpha) {
  std::string out(verdictName(c.verdict));
  if (c.verdict == Verdict::Regression || c.verdict == Verdict::Improvement) {
    const double pMax = std::max(c.welch.p, c.mw.p);
    out += pMax < 0.01 ? " **" : (pMax < alpha ? " *" : "");
  }
  return out;
}

}  // namespace

std::string_view verdictName(Verdict v) {
  switch (v) {
    case Verdict::Unchanged:
      return "unchanged";
    case Verdict::Regression:
      return "REGRESSION";
    case Verdict::Improvement:
      return "improvement";
    case Verdict::BaselineOnly:
      return "baseline-only";
    case Verdict::CandidateOnly:
      return "candidate-only";
    case Verdict::Insufficient:
      return "insufficient";
  }
  return "unknown";
}

CompareReport compareStores(const StoreContents& baseline,
                            const StoreContents& candidate,
                            const CompareOptions& options) {
  CompareReport report;
  report.options = options;
  report.configNotes = configNotes(baseline.config, candidate.config);

  const RecordIndex baseIndex = indexRecords(baseline);
  const RecordIndex candIndex = indexRecords(candidate);
  std::vector<std::string> keys;
  keys.reserve(baseIndex.size() + candIndex.size());
  for (const auto& [key, record] : baseIndex) {
    keys.push_back(key);
  }
  for (const auto& [key, record] : candIndex) {
    if (baseIndex.find(key) == baseIndex.end()) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());

  // Order-preserving map over the sorted key union: each cell's battery
  // (Welch, the rank test and Cliff's delta) is independent, and the
  // result vector is indexed by key order, so the report is
  // byte-identical at any worker count.
  report.cells = par::parallelMap(
      keys,
      [&](const std::string& key) {
        const auto b = baseIndex.find(key);
        const auto c = candIndex.find(key);
        return compareCell(b == baseIndex.end() ? nullptr : b->second,
                           c == candIndex.end() ? nullptr : c->second,
                           options);
      },
      options.jobs);

  for (const CellComparison& c : report.cells) {
    switch (c.verdict) {
      case Verdict::Regression:
        ++report.regressions;
        break;
      case Verdict::Improvement:
        ++report.improvements;
        break;
      case Verdict::Unchanged:
        ++report.unchanged;
        break;
      case Verdict::BaselineOnly:
      case Verdict::CandidateOnly:
        ++report.unmatched;
        break;
      case Verdict::Insufficient:
        ++report.insufficient;
        break;
    }
  }
  return report;
}

std::string renderCompare(const CompareReport& report,
                          const StoreContents& baseline,
                          const StoreContents& candidate) {
  // The CIs are the expensive part of the report (two bootstraps per
  // cell), so they fan out in cell order like compareStores' battery and
  // read the same first-occurrence records.
  const RecordIndex baseIndex = indexRecords(baseline);
  const RecordIndex candIndex = indexRecords(candidate);
  const CompareOptions& opt = report.options;
  const auto ciOf = [&](const RecordIndex& index, const std::string& key) {
    const auto it = index.find(key);
    if (it == index.end() || it->second->samples.empty()) {
      return BootstrapCi{};
    }
    return bootstrapMeanCi(it->second->samples, opt.ciLevel,
                           opt.bootstrapResamples);
  };
  const std::vector<std::pair<BootstrapCi, BootstrapCi>> cis =
      par::parallelMap(
          report.cells,
          [&](const CellComparison& c) {
            const std::string key = joinKey(c.machine, c.cell, c.quantity);
            return std::pair{ciOf(baseIndex, key), ciOf(candIndex, key)};
          },
          opt.jobs);

  std::ostringstream out;
  out << "comparison: alpha=" << formatFixed(report.options.alpha, 3)
      << ", threshold=" << formatFixed(report.options.thresholdPct, 2)
      << "%, bootstrap " << report.options.bootstrapResamples
      << " resamples at " << formatFixed(report.options.ciLevel * 100.0, 0)
      << "% coverage\n";
  for (const std::string& note : report.configNotes) {
    out << note << "\n";
  }
  out << "\n";

  std::size_t i = 0;
  while (i < report.cells.size()) {
    const std::string& machine = report.cells[i].machine;
    Table table({"Cell", "Quantity", "Unit", "Baseline [95% CI]",
                 "Candidate [95% CI]", "Delta %", "p(Welch)", "p(MWU)",
                 "Cliff d", "Verdict"});
    table.setTitle(machine);
    table.setAlign(1, Align::Left);
    table.setAlign(2, Align::Left);
    table.setAlign(9, Align::Left);
    for (; i < report.cells.size() && report.cells[i].machine == machine;
         ++i) {
      const CellComparison& c = report.cells[i];
      const bool tested = c.verdict == Verdict::Unchanged ||
                          c.verdict == Verdict::Regression ||
                          c.verdict == Verdict::Improvement;
      table.addRow({c.cell, c.quantity, c.unit,
                    formatMeanCi(c.baseline, cis[i].first),
                    formatMeanCi(c.candidate, cis[i].second),
                    tested ? (c.deltaPct >= 0.0 ? "+" : "") +
                                 formatFixed(c.deltaPct, 2)
                           : "-",
                    tested ? formatP(c.welch.p) : "-",
                    tested ? formatP(c.mw.p) : "-",
                    tested ? formatFixed(c.cliffsDelta, 3) : "-",
                    verdictCell(c, report.options.alpha)});
    }
    out << table.renderAscii() << "\n";
  }

  out << report.cells.size() << " cell(s) compared: " << report.regressions
      << " regression(s), " << report.improvements << " improvement(s), "
      << report.unchanged << " unchanged, " << report.unmatched
      << " unmatched, " << report.insufficient << " insufficient\n";
  out << "significance markers: ** both tests p < 0.01, * both tests p < "
      << formatFixed(report.options.alpha, 3) << "\n";
  return out.str();
}

std::string renderGate(const CompareReport& report) {
  std::ostringstream out;
  for (const std::string& note : report.configNotes) {
    out << note << "\n";
  }
  for (const CellComparison& c : report.cells) {
    if (c.verdict != Verdict::Regression) {
      continue;
    }
    out << "REGRESSION: " << c.machine << " / " << c.cell << " / "
        << c.quantity << ": " << (c.deltaPct >= 0.0 ? "+" : "")
        << formatFixed(c.deltaPct, 2) << "% ("
        << (c.better == Better::Lower ? "lower" : "higher")
        << " is better), p(Welch)=" << formatP(c.welch.p)
        << ", p(MWU)=" << formatP(c.mw.p) << ", Cliff d="
        << formatFixed(c.cliffsDelta, 3) << "\n";
  }
  out << "gate: " << report.cells.size() << " cell(s) compared, "
      << report.regressions << " regression(s) at threshold "
      << formatFixed(report.options.thresholdPct, 2) << "% -> "
      << (report.regressions == 0 ? "PASS" : "FAIL") << "\n";
  return out.str();
}

int gateExit(const CompareReport& report) {
  return report.regressions == 0 ? 0 : kGateRegressionExitCode;
}

}  // namespace nodebench::stats
