#include "report/tables.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <utility>

#include "babelstream/driver.hpp"
#include "babelstream/sim_device_backend.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "campaign/fingerprint.hpp"
#include "commscope/commscope.hpp"
#include "core/parallel.hpp"
#include "core/samples.hpp"
#include "faults/fault_plan.hpp"
#include "machines/registry.hpp"
#include "ompenv/omp_config.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "report/cell_runner.hpp"
#include "stats/store.hpp"

namespace nodebench::report {

using machines::Machine;
using topo::LinkClass;
using Buffers = mpisim::BufferSpace::Kind;
using cellrun::cellFailed;
using cellrun::naOr;

namespace {

// Canonical cell names: shared by the retry harness (incident records,
// flaky-cell draws) and the renderers (n/a lookup). Changing one changes
// the fault plans that can target it.
constexpr const char* kCellHostBandwidth = "host bandwidth";
constexpr const char* kCellOnSocket = "on-socket latency";
constexpr const char* kCellOnNode = "on-node latency";
constexpr const char* kCellDeviceBandwidth = "device bandwidth";
constexpr const char* kCellHostToHost = "host-to-host latency";
constexpr const char* kCellLaunch = "kernel launch";
constexpr const char* kCellWait = "sync wait";
constexpr const char* kCellHdLatency = "H<->D latency";
constexpr const char* kCellHdBandwidth = "H<->D bandwidth";
// The OSU (Table 5) and Comm|Scope (Table 6) D2D cells measure different
// things, so they get distinct names — an incident in one must not mark
// the other as failed. Each is one cell per link class (classCellName).
constexpr const char* kCellD2dMpi = "D2D MPI latency";
constexpr const char* kCellD2dCopy = "D2D copy latency";

std::string classCellName(const char* base, LinkClass c) {
  return std::string(base) + " class " +
         static_cast<char>('A' + static_cast<int>(c));
}

constexpr cellrun::Quantity kLatencyUs{"latency", "us", stats::Better::Lower};
constexpr cellrun::Quantity kBandwidthGBps{"bandwidth", "GB/s",
                                           stats::Better::Higher};

/// One kind of one-Summary cell of a measured table: its canonical name,
/// its store quantity, how it is measured and which row field it fills.
/// A per-class kind repeats once per GPU link class present on the
/// machine, named by classCellName; `measure` and `assign` get the class
/// (LinkClass::None for the other kinds).
template <typename Row>
struct SummaryKind {
  const char* cell;
  bool perLinkClass;
  cellrun::Quantity quantity;
  cellrun::Sampled (*measure)(const Machine&, const TableOptions&, LinkClass,
                              std::uint64_t salt);
  void (*assign)(Row&, LinkClass, const Summary&);
};

/// One task of a SummaryKind table. Table 4's host bandwidth cell is the
/// one task without a kind.
template <typename Row>
struct KindTask : cellrun::GridTask {
  const SummaryKind<Row>* kind = nullptr;
  LinkClass linkClass = LinkClass::None;
};

/// Appends one machine's cells of `kinds`, in kind order. The grid is
/// always the *registry* machine's — a fault plan never changes a
/// table's shape, only which cells degrade to "n/a". Enumeration also
/// primes each topology's route cache before the fan-out.
template <typename Row, std::size_t N>
void appendKindTasks(std::vector<KindTask<Row>>& tasks, std::size_t machine,
                     const Machine& m, const SummaryKind<Row> (&kinds)[N]) {
  for (const SummaryKind<Row>& kind : kinds) {
    if (!kind.perLinkClass) {
      tasks.push_back({{machine, kind.cell}, &kind, LinkClass::None});
      continue;
    }
    for (const LinkClass c : m.topology.presentGpuLinkClasses()) {
      tasks.push_back({{machine, classCellName(kind.cell, c)}, &kind, c});
    }
  }
}

template <typename Row>
void measureKind(const TableOptions& opt, const KindTask<Row>& task,
                 cellrun::CellRun& cell, Row& row) {
  const SummaryKind<Row>& kind = *task.kind;
  cell.summary(
      kind.quantity,
      [&](std::uint64_t salt) {
        return kind.measure(cell.machine(), opt, task.linkClass, salt);
      },
      [&](const Summary& v) { kind.assign(row, task.linkClass, v); });
}

/// OSU ping-pong latency between `ranks`: every MPI latency cell of
/// Tables 4 and 5.
cellrun::Sampled osuLatency(const Machine& m, const TableOptions& opt,
                            const osu::PlacementPair& ranks, Buffers buffers,
                            std::uint64_t salt) {
  osu::LatencyConfig cfg;
  cfg.messageSize = opt.mpiMessageSize;
  cfg.binaryRuns = opt.binaryRuns;
  cfg.seed ^= salt;
  return {osu::LatencyBenchmark(m, ranks.first, ranks.second, buffers)
              .measure(cfg)
              .latencyUs,
          osu::kLatencySampleChannel};
}

/// One Comm|Scope quantity, measured by its own scope instance: the truth
/// methods reset the simulated runtime before measuring and the aggregate
/// noise streams are seeded from the cell identity alone, so a per-cell
/// instance reports exactly what a shared-instance measureAll() sequence
/// reports.
template <typename Fn>
cellrun::Sampled commScope(const Machine& m, const TableOptions& opt,
                           std::uint64_t salt, const char* channel, Fn&& fn) {
  commscope::CommScope scope(m);
  commscope::Config cfg;
  cfg.binaryRuns = opt.binaryRuns;
  cfg.seed ^= salt;
  return {std::invoke(fn, scope, cfg), channel};
}

using commscope::CommScope;

const SummaryKind<Cpu4Row> kTable4Latencies[] = {
    {kCellOnSocket, false, kLatencyUs,
     [](const Machine& m, const TableOptions& opt, LinkClass,
        std::uint64_t salt) {
       return osuLatency(m, opt, osu::onSocketPair(m), Buffers::Host, salt);
     },
     [](Cpu4Row& r, LinkClass, const Summary& v) { r.onSocketUs = v; }},
    {kCellOnNode, false, kLatencyUs,
     [](const Machine& m, const TableOptions& opt, LinkClass,
        std::uint64_t salt) {
       return osuLatency(m, opt, osu::onNodePair(m), Buffers::Host, salt);
     },
     [](Cpu4Row& r, LinkClass, const Summary& v) { r.onNodeUs = v; }},
};

const SummaryKind<Gpu5Row> kTable5Kinds[] = {
    {kCellDeviceBandwidth, false, kBandwidthGBps,
     [](const Machine& m, const TableOptions& opt, LinkClass,
        std::uint64_t salt) {
       babelstream::SimDeviceBackend backend(m, /*device=*/0);
       babelstream::DriverConfig dcfg;
       dcfg.arrayBytes = opt.gpuArrayBytes;
       dcfg.binaryRuns = opt.binaryRuns;
       dcfg.seed ^= m.seed ^ salt;
       const babelstream::RunResult result = babelstream::run(backend, dcfg);
       const auto& best = result.best();
       // The winning STREAM op's channel holds the raw draws.
       return cellrun::Sampled{
           best.bandwidthGBps, std::string(babelstream::streamOpName(best.op))};
     },
     [](Gpu5Row& r, LinkClass, const Summary& v) { r.deviceGBps = v; }},
    {kCellHostToHost, false, kLatencyUs,
     [](const Machine& m, const TableOptions& opt, LinkClass,
        std::uint64_t salt) {
       return osuLatency(m, opt, osu::onSocketPair(m), Buffers::Host, salt);
     },
     [](Gpu5Row& r, LinkClass, const Summary& v) { r.hostToHostUs = v; }},
    {kCellD2dMpi, true, kLatencyUs,
     [](const Machine& m, const TableOptions& opt, LinkClass c,
        std::uint64_t salt) {
       return osuLatency(m, opt, osu::devicePair(m, c), Buffers::Device, salt);
     },
     [](Gpu5Row& r, LinkClass c, const Summary& v) {
       r.deviceToDeviceUs[static_cast<int>(c)] = v;
     }},
};

const SummaryKind<Gpu6Row> kTable6Kinds[] = {
    {kCellLaunch, false, kLatencyUs,
     [](const Machine& m, const TableOptions& opt, LinkClass,
        std::uint64_t salt) {
       return commScope(m, opt, salt, commscope::kLaunchSampleChannel,
                        &CommScope::kernelLaunchUs);
     },
     [](Gpu6Row& r, LinkClass, const Summary& v) { r.launchUs = v; }},
    {kCellWait, false, kLatencyUs,
     [](const Machine& m, const TableOptions& opt, LinkClass,
        std::uint64_t salt) {
       return commScope(m, opt, salt, commscope::kWaitSampleChannel,
                        &CommScope::syncWaitUs);
     },
     [](Gpu6Row& r, LinkClass, const Summary& v) { r.waitUs = v; }},
    {kCellHdLatency, false, kLatencyUs,
     [](const Machine& m, const TableOptions& opt, LinkClass,
        std::uint64_t salt) {
       return commScope(m, opt, salt, commscope::kHdLatencySampleChannel,
                        &CommScope::hostDeviceLatencyUs);
     },
     [](Gpu6Row& r, LinkClass, const Summary& v) {
       r.hostDeviceLatencyUs = v;
     }},
    {kCellHdBandwidth, false, kBandwidthGBps,
     [](const Machine& m, const TableOptions& opt, LinkClass,
        std::uint64_t salt) {
       return commScope(m, opt, salt, commscope::kHdBandwidthSampleChannel,
                        &CommScope::hostDeviceBandwidthGBps);
     },
     [](Gpu6Row& r, LinkClass, const Summary& v) {
       r.hostDeviceBandwidthGBps = v;
     }},
    {kCellD2dCopy, true, kLatencyUs,
     [](const Machine& m, const TableOptions& opt, LinkClass c,
        std::uint64_t salt) {
       return commScope(m, opt, salt, commscope::kD2dLatencySampleChannel,
                        [c](CommScope& s, const commscope::Config& cfg) {
                          return s.d2dLatencyUs(c, cfg);
                        });
     },
     [](Gpu6Row& r, LinkClass c, const Summary& v) {
       r.d2dLatencyUs[static_cast<int>(c)] = v;
     }},
};

/// Tables 5 and 6: every cell of every GPU machine is a SummaryKind row.
template <typename Row, std::size_t N>
std::vector<Row> computeGpuTable(const TableOptions& opt, const char* label,
                                 const SummaryKind<Row> (&kinds)[N],
                                 std::vector<CellIncident>* incidents) {
  const auto ms = cellrun::filteredMachines(machines::gpuMachines(), opt);
  std::vector<Row> rows(ms.size());
  std::vector<KindTask<Row>> tasks;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    appendKindTasks(tasks, i, *ms[i], kinds);
  }
  cellrun::runGrid(opt, label, ms, tasks, incidents,
                   [&](const KindTask<Row>& task, cellrun::CellRun& cell) {
                     measureKind(opt, task, cell, rows[task.machine]);
                   });
  return rows;
}

}  // namespace

campaign::CampaignConfig campaignConfig(const TableOptions& opt) {
  campaign::CampaignConfig cfg;
  cfg.registryHash = campaign::registryHash();
  cfg.faultPlanHash = campaign::faultPlanHash(opt.faults);
  cfg.seed = opt.faults != nullptr ? opt.faults->seed : 0;
  cfg.runs = static_cast<std::uint32_t>(opt.binaryRuns);
  cfg.jobs = static_cast<std::uint32_t>(std::max(0, opt.jobs));
  cfg.cellRetries = static_cast<std::uint32_t>(std::max(0, opt.cellRetries));
  cfg.cpuArrayBytes = opt.cpuArrayBytes.count();
  cfg.gpuArrayBytes = opt.gpuArrayBytes.count();
  cfg.mpiMessageSize = opt.mpiMessageSize.count();
  if (opt.shard != nullptr) {
    cfg.shardIndex = opt.shard->spec().index;
    cfg.shardCount = opt.shard->spec().count;
  }
  return cfg;
}

std::string renderDiagnostics(const std::vector<CellIncident>& incidents) {
  if (incidents.empty()) {
    return {};
  }
  std::ostringstream out;
  out << "Diagnostics appendix (" << incidents.size()
      << (incidents.size() == 1 ? " incident" : " incidents") << ")\n";
  for (const CellIncident& i : incidents) {
    out << "  " << i.machine << " / " << i.cell << ": ";
    if (i.failed) {
      out << "n/a after " << i.attempts
          << (i.attempts == 1 ? " attempt" : " attempts") << ": " << i.error;
    } else {
      out << "recovered on attempt " << i.attempts << " (last error: "
          << i.error << ")";
    }
    out << "\n";
  }
  return out.str();
}

Table buildTable1() {
  Table t({"OMP_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES"});
  t.setTitle("Table 1: OpenMP environment combinations for host bandwidth");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  // Rendered symbolically, exactly as the paper's table shows them.
  const auto row = [&](const char* n, const char* b, const char* p) {
    t.addRow({n, b, p});
  };
  row("1", "not set", "not set");
  row("1", "\"true\"", "not set");
  t.addSeparator();
  row("#cores", "not set", "not set");
  row("#cores", "\"true\"", "not set");
  row("#cores", "\"spread\"", "\"cores\"");
  row("#threads", "not set", "not set");
  row("#threads", "\"true\"", "not set");
  row("#threads", "\"close\"", "\"threads\"");
  return t;
}

Table buildTable2() {
  Table t({"Rank/Name", "Location", "CPU"});
  t.setTitle("Table 2: US DOE non-accelerator supercomputers (top 150, June 2023)");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  for (const Machine* m : machines::cpuMachines()) {
    t.addRow({std::to_string(m->info.top500Rank) + ". " + m->info.name,
              m->info.location, m->info.cpuModel});
  }
  return t;
}

Table buildTable3() {
  Table t({"Rank/Name", "Location", "CPU", "Accelerator"});
  t.setTitle("Table 3: US DOE accelerator supercomputers (top 150, June 2023)");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  t.setAlign(3, Align::Left);
  for (const Machine* m : machines::gpuMachines()) {
    t.addRow({std::to_string(m->info.top500Rank) + ". " + m->info.name,
              m->info.location, m->info.cpuModel, m->info.acceleratorModel});
  }
  return t;
}

OmpSweepResult ompSweep(const Machine& m, const TableOptions& opt,
                        std::uint64_t seedSalt) {
  OmpSweepResult out;
  const auto configs =
      ompenv::table1Combinations(m.coreCount(), m.hardwareThreadCount());
  // Fan the independent environment combinations out over the harness
  // workers, then reduce sequentially in Table 1 order so the
  // strictly-greater / first-wins tie-break matches the sequential sweep.
  // When the caller has a sample capture active (a --store run), each
  // configuration installs its own nested capture so the winning op's
  // raw draws can be attributed per entry. The nested capture shadows the
  // cell-level one for its lifetime; without an active capture the sweep
  // skips the bookkeeping entirely.
  const bool capturing = activeSampleCapture() != nullptr;
  out.entries = par::parallelMap(
      configs,
      [&](const ompenv::OmpConfig& cfg) {
        std::optional<SampleCapture> cap;
        if (capturing) {
          cap.emplace();
        }
        babelstream::SimOmpBackend backend(m, cfg);
        babelstream::DriverConfig dcfg;
        dcfg.arrayBytes = opt.cpuArrayBytes;
        dcfg.binaryRuns = opt.binaryRuns;
        dcfg.seed ^= m.seed ^ seedSalt;
        const auto result = babelstream::run(backend, dcfg);
        const auto& best = result.best();
        std::string bestOp(babelstream::streamOpName(best.op));
        OmpSweepEntry entry{cfg.toString(), best.bandwidthGBps, bestOp, {}};
        if (cap) {
          entry.samples = cap->take(bestOp);
        }
        return entry;
      },
      opt.jobs);
  bool haveSingle = false;
  bool haveAll = false;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Summary& gbps = out.entries[i].bestOpGBps;
    const bool single = configs[i].numThreads.value_or(2) == 1;
    if (single) {
      if (!haveSingle || gbps.mean > out.bestSingle.mean) {
        out.bestSingle = gbps;
        out.bestSingleSamples = out.entries[i].samples;
        haveSingle = true;
      }
    } else {
      if (!haveAll || gbps.mean > out.bestAll.mean) {
        out.bestAll = gbps;
        out.bestAllSamples = out.entries[i].samples;
        haveAll = true;
      }
    }
  }
  NB_ENSURES(haveSingle && haveAll);
  return out;
}

std::vector<Cpu4Row> computeTable4(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  const auto ms = cellrun::filteredMachines(machines::cpuMachines(), opt);
  std::vector<Cpu4Row> rows(ms.size());
  std::vector<KindTask<Cpu4Row>> tasks;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    rows[i].machine = ms[i];
    tasks.push_back({{i, kCellHostBandwidth}, nullptr, LinkClass::None});
    appendKindTasks(tasks, i, *ms[i], kTable4Latencies);
  }
  cellrun::runGrid(
      opt, "table 4", ms, tasks, incidents,
      [&](const KindTask<Cpu4Row>& task, cellrun::CellRun& cell) {
        Cpu4Row& row = rows[task.machine];
        if (task.kind != nullptr) {
          measureKind(opt, task, cell, row);
          return;
        }
        // The host bandwidth cell journals two summaries and writes two
        // store records: the sweep's winning sample vectors are stashed
        // by the body for the store step. The sweep runs its configs
        // inline here (nested sections stay sequential) — the machine
        // fan-out already feeds every worker.
        std::vector<double> singleSamples;
        std::vector<double> allSamples;
        cell.run(
            [&](std::uint64_t salt) {
              OmpSweepResult sweep = ompSweep(cell.machine(), opt, salt);
              row.singleGBps = sweep.bestSingle;
              row.allGBps = sweep.bestAll;
              singleSamples = std::move(sweep.bestSingleSamples);
              allSamples = std::move(sweep.bestAllSamples);
            },
            [&](campaign::PayloadWriter& w) {
              campaign::putSummary(w, row.singleGBps);
              campaign::putSummary(w, row.allGBps);
            },
            [&](campaign::PayloadReader& r) {
              row.singleGBps = campaign::readSummary(r);
              row.allGBps = campaign::readSummary(r);
            },
            [&](SampleCapture&) {
              cell.record({"single-thread bandwidth", "GB/s",
                           stats::Better::Higher},
                          row.singleGBps, std::move(singleSamples));
              cell.record({"full-team bandwidth", "GB/s",
                           stats::Better::Higher},
                          row.allGBps, std::move(allSamples));
            });
      });
  return rows;
}

namespace {

std::string rankName(const Machine& m) {
  return std::to_string(m.info.top500Rank) + ". " + m.info.name;
}

std::string cellOrEmpty(const std::optional<Summary>& s, int precision = 2) {
  return s ? s->toString(precision) : std::string{};
}

}  // namespace

Table renderTable4(const std::vector<Cpu4Row>& rows,
                   const std::vector<CellIncident>* incidents) {
  Table t({"Rank/Name", "Single (GB/s)", "All (GB/s)", "Peak (GB/s)",
           "On-Socket (us)", "On-Node (us)"});
  t.setTitle("Table 4: CPU memory bandwidth and MPI latency (mean +- sigma, 100 runs)");
  for (const Cpu4Row& row : rows) {
    const std::string& name = row.machine->info.name;
    const bool bwFailed = cellFailed(incidents, name, kCellHostBandwidth);
    t.addRow({rankName(*row.machine),
              naOr(bwFailed, row.singleGBps.toString()),
              naOr(bwFailed, row.allGBps.toString()),
              row.machine->hostMemory.peakNote,
              naOr(cellFailed(incidents, name, kCellOnSocket),
                   row.onSocketUs.toString()),
              naOr(cellFailed(incidents, name, kCellOnNode),
                   row.onNodeUs.toString())});
  }
  return t;
}

std::vector<Gpu5Row> computeTable5(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  return computeGpuTable(opt, "table 5", kTable5Kinds, incidents);
}

Table renderTable5(const std::vector<Gpu5Row>& rows,
                   const std::vector<CellIncident>* incidents) {
  Table t({"Rank/Name", "Device BW (GB/s)", "Peak", "Host-to-Host (us)",
           "D2D A (us)", "D2D B (us)", "D2D C (us)", "D2D D (us)"});
  t.setTitle("Table 5: GPU memory bandwidth and MPI latency (mean +- sigma, 100 runs)");
  for (const Gpu5Row& row : rows) {
    const std::string& name = row.machine->info.name;
    // A class absent from the machine stays blank; a class whose
    // measurement failed renders "n/a".
    const auto d2d = [&](int c) {
      const std::string cell =
          classCellName(kCellD2dMpi, static_cast<LinkClass>(c));
      return naOr(cellFailed(incidents, name, cell),
                  cellOrEmpty(row.deviceToDeviceUs[c]));
    };
    t.addRow({rankName(*row.machine),
              naOr(cellFailed(incidents, name, kCellDeviceBandwidth),
                   row.deviceGBps.toString()),
              row.machine->device->hbmPeakNote,
              naOr(cellFailed(incidents, name, kCellHostToHost),
                   row.hostToHostUs.toString()),
              d2d(0), d2d(1), d2d(2), d2d(3)});
  }
  return t;
}

std::vector<Gpu6Row> computeTable6(const TableOptions& opt,
                                   std::vector<CellIncident>* incidents) {
  return computeGpuTable(opt, "table 6", kTable6Kinds, incidents);
}

Table renderTable6(const std::vector<Gpu6Row>& rows,
                   const std::vector<CellIncident>* incidents) {
  Table t({"Rank/Name", "Launch (us)", "Wait (us)", "H<->D Lat (us)",
           "H<->D BW (GB/s)", "D2D A (us)", "D2D B (us)", "D2D C (us)",
           "D2D D (us)"});
  t.setTitle(
      "Table 6: Comm|Scope kernel/wait latencies and transfer costs "
      "(mean +- sigma, 100 runs)");
  for (const Gpu6Row& row : rows) {
    const std::string& name = row.machine->info.name;
    const auto d2d = [&](int c) {
      const std::string cell =
          classCellName(kCellD2dCopy, static_cast<LinkClass>(c));
      return naOr(cellFailed(incidents, name, cell),
                  cellOrEmpty(row.d2dLatencyUs[c]));
    };
    t.addRow({rankName(*row.machine),
              naOr(cellFailed(incidents, name, kCellLaunch),
                   row.launchUs.toString()),
              naOr(cellFailed(incidents, name, kCellWait),
                   row.waitUs.toString()),
              naOr(cellFailed(incidents, name, kCellHdLatency),
                   row.hostDeviceLatencyUs.toString()),
              naOr(cellFailed(incidents, name, kCellHdBandwidth),
                   row.hostDeviceBandwidthGBps.toString()),
              d2d(0), d2d(1), d2d(2), d2d(3)});
  }
  return t;
}

namespace {

/// Min-max of the mean values across a group of machines, rendered
/// "lo-hi" as in Table 7.
class Range {
 public:
  void add(const Summary& s) {
    lo_ = empty_ ? s.mean : std::min(lo_, s.mean);
    hi_ = empty_ ? s.mean : std::max(hi_, s.mean);
    empty_ = false;
  }
  void addIf(const std::optional<Summary>& s) {
    if (s) {
      add(*s);
    }
  }
  [[nodiscard]] std::string str(int precision = 2) const {
    if (empty_) {
      return {};
    }
    return formatFixed(lo_, precision) + "-" + formatFixed(hi_, precision);
  }

 private:
  bool empty_ = true;
  double lo_ = 0.0;
  double hi_ = 0.0;
};

}  // namespace

Table buildTable7(const std::vector<Gpu5Row>& t5,
                  const std::vector<Gpu6Row>& t6,
                  const std::vector<CellIncident>* incidents) {
  Table t({"Accelerator", "Memory BW", "MPI Lat.", "Kernel Launch",
           "Kernel Wait", "H2D/D2H Lat.", "H2D/D2H BW", "D2D Lat."});
  t.setTitle(
      "Table 7: min-max of mean values across machines, per accelerator");
  for (const auto& group : machines::acceleratorGroups()) {
    Range bw;
    Range mpi;
    Range launch;
    Range wait;
    Range hdLat;
    Range hdBw;
    Range d2d;
    for (const Machine* m : group.members) {
      // Failed cells hold zero-initialised placeholders; keep them out of
      // the min-max ranges.
      const auto ok = [&](const char* cell) {
        return !cellFailed(incidents, m->info.name, cell);
      };
      const std::string mpiClassA = classCellName(kCellD2dMpi, LinkClass::A);
      const std::string copyClassA = classCellName(kCellD2dCopy, LinkClass::A);
      for (const Gpu5Row& row : t5) {
        if (row.machine != m) {
          continue;
        }
        if (ok(kCellDeviceBandwidth)) {
          bw.add(row.deviceGBps);
        }
        // The paper's Table 7 ranges cover the class-A (direct-link) pair
        // of each machine: e.g. its V100 MPI range is 18.10-18.72, which
        // excludes the class-B 19.30-19.76 values.
        if (ok(mpiClassA.c_str())) {
          mpi.addIf(row.deviceToDeviceUs[0]);
        }
      }
      for (const Gpu6Row& row : t6) {
        if (row.machine != m) {
          continue;
        }
        if (ok(kCellLaunch)) {
          launch.add(row.launchUs);
        }
        if (ok(kCellWait)) {
          wait.add(row.waitUs);
        }
        if (ok(kCellHdLatency)) {
          hdLat.add(row.hostDeviceLatencyUs);
        }
        if (ok(kCellHdBandwidth)) {
          hdBw.add(row.hostDeviceBandwidthGBps);
        }
        if (ok(copyClassA.c_str())) {
          d2d.addIf(row.d2dLatencyUs[0]);  // class A, as above
        }
      }
    }
    t.addRow({group.name, bw.str(), mpi.str(), launch.str(), wait.str(),
              hdLat.str(), hdBw.str(), d2d.str()});
  }
  return t;
}

Table buildTable8() {
  Table t({"Rank/Name", "Compiler", "MPI"});
  t.setTitle("Table 8: software environment, non-accelerator machines");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  for (const Machine* m : machines::cpuMachines()) {
    t.addRow({rankName(*m), m->env.compiler, m->env.mpi});
  }
  return t;
}

Table buildTable9() {
  Table t({"Rank/Name", "Compiler", "Device Library", "MPI"});
  t.setTitle("Table 9: software environment, accelerator machines");
  t.setAlign(1, Align::Left);
  t.setAlign(2, Align::Left);
  t.setAlign(3, Align::Left);
  for (const Machine* m : machines::gpuMachines()) {
    t.addRow(
        {rankName(*m), m->env.compiler, m->env.deviceLibrary, m->env.mpi});
  }
  return t;
}

}  // namespace nodebench::report
