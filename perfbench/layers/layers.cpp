/// \file layers.cpp
/// \brief Per-layer attribution driver of the nodebench benchmark.
///
/// Calls each layer's public functions in-process, records a span around
/// every call, and prints one JSON object of per-layer metrics as its last
/// line of stdout. The end-to-end runner (perfbench/run.py) starts it on
/// `--trace 1` runs only; the end-to-end metrics never depend on it.
///
///   perfbench_layers --seed N --seconds S --work DIR --spans FILE
///
/// DIR holds the reference artifacts the runner recorded with the CLI:
///   ref/table_all.txt ref/sweep.txt ref/chase.txt   `--jobs 1` stdout
///   ref/table5.trace.json                           `table 5 --trace`
///   ref/ref.journal ref/ref.store                   `table all --jobs 1`
///   ref/regress.store                               under the regression plan
///   shard/journal.shard<i>of4 shard/store.shard<i>of4  direct shard runs
/// Every call's output is checked against them; a mismatch counts as a
/// failed step. Rounds of steps run until S seconds have passed, in an
/// order shuffled per round from the seed. Spans go to FILE as JSON lines.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "babelstream/driver.hpp"
#include "babelstream/sim_omp_backend.hpp"
#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "commscope/commscope.hpp"
#include "machines/builders.hpp"
#include "machines/registry.hpp"
#include "machines/validate.hpp"
#include "memsim/host_memory_model.hpp"
#include "ompenv/placement.hpp"
#include "osu/latency.hpp"
#include "osu/pairs.hpp"
#include "report/memlab_report.hpp"
#include "report/tables.hpp"
#include "serve/http.hpp"
#include "serve/request.hpp"
#include "stats/compare.hpp"
#include "stats/merge.hpp"
#include "stats/store.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace {

using namespace nodebench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// A wrong output: the step that produced it counts as failed.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) {
    throw CheckFailure(what);
  }
}

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  int round = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

/// In-memory span recorder, used from the main thread only. Spans nest
/// through an explicit stack and are written out once, when the run ends.
class Tracer {
 public:
  int begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), id, stack_.empty() ? -1 : stack_.back(),
                      round_, nowNs(), 0});
    stack_.push_back(id);
    return id;
  }
  std::int64_t end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.endNs = nowNs();
    stack_.pop_back();
    return s.endNs - s.startNs;
  }
  /// Closes spans left open by a step that threw.
  void unwind(std::size_t depth) {
    while (stack_.size() > depth) {
      end(stack_.back());
    }
  }
  [[nodiscard]] std::size_t depth() const { return stack_.size(); }
  void setRound(int round) { round_ = round; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int round_ = 0;
};

/// Runs `fn` inside a span named `name` (no span when `t` is null) and
/// returns the elapsed nanoseconds.
template <class F>
double timed(Tracer* t, const char* name, F&& fn) {
  if (t == nullptr) {
    const std::int64_t start = nowNs();
    fn();
    return static_cast<double>(nowNs() - start);
  }
  const int id = t->begin(name);
  fn();
  return static_cast<double>(t->end(id));
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path.string());
  }
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::span<const std::uint8_t> bytesOf(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Ctx {
  fs::path work;
  fs::path scratch;
  std::mt19937_64 rng;
  Tracer tracer;
  /// Per-layer sample lists (per call or per round) and single counts.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counts;
  report::TableOptions opt;  // the CLI's defaults

  std::string refTableAll, refSweep, refChase, refTrace;
  std::string refJournalBytes, refStoreBytes;
  campaign::Journal::Decoded refJournal;
  stats::StoreContents refStore, regressStore;
  std::vector<std::pair<const machines::Machine*, ompenv::ThreadPlacement>>
      placements;
  std::vector<std::string> serveBodies;
  double sink = 0.0;  ///< Keeps computed values observable.
};

// --- report -----------------------------------------------------------------

/// `nodebench table all` in-process: compute and render every table in the
/// CLI's order. With a tracer, compute and render calls get their own spans.
std::string tableAll(Ctx& c, Tracer* t, double* computeNs, double* renderNs,
                     std::vector<report::CellIncident>& incidents) {
  std::string out;
  const auto compute = [&](auto&& fn) {
    *computeNs += timed(t, "report.compute", fn);
  };
  const auto render = [&](auto&& fn) {
    *renderNs += timed(t, "report.render", fn);
  };
  for (int n = 1; n <= 9; ++n) {
    switch (n) {
      case 1: render([&] { out += report::buildTable1().renderAscii(); }); break;
      case 2: render([&] { out += report::buildTable2().renderAscii(); }); break;
      case 3: render([&] { out += report::buildTable3().renderAscii(); }); break;
      case 4: {
        std::vector<report::Cpu4Row> rows;
        compute([&] { rows = report::computeTable4(c.opt, &incidents); });
        render([&] { out += report::renderTable4(rows, &incidents).renderAscii(); });
        break;
      }
      case 5: {
        std::vector<report::Gpu5Row> rows;
        compute([&] { rows = report::computeTable5(c.opt, &incidents); });
        render([&] { out += report::renderTable5(rows, &incidents).renderAscii(); });
        break;
      }
      case 6: {
        std::vector<report::Gpu6Row> rows;
        compute([&] { rows = report::computeTable6(c.opt, &incidents); });
        render([&] { out += report::renderTable6(rows, &incidents).renderAscii(); });
        break;
      }
      case 7: {
        std::vector<report::Gpu5Row> t5;
        std::vector<report::Gpu6Row> t6;
        compute([&] {
          t5 = report::computeTable5(c.opt, &incidents);
          t6 = report::computeTable6(c.opt, &incidents);
        });
        render([&] {
          out += report::buildTable7(t5, t6, &incidents).renderAscii();
        });
        break;
      }
      case 8: render([&] { out += report::buildTable8().renderAscii(); }); break;
      case 9: render([&] { out += report::buildTable9().renderAscii(); }); break;
      default: break;
    }
    out += '\n';
  }
  out += report::renderDiagnostics(incidents);
  return out;
}

/// One traced and one untraced `table all`, in seeded order; their
/// difference is the tracing overhead.
void stepTableAll(Ctx& c) {
  const bool tracedFirst = (c.rng() & 1U) != 0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool traced = (pass == 0) == tracedFirst;
    double computeNs = 0.0;
    double renderNs = 0.0;
    std::vector<report::CellIncident> incidents;
    std::string out;
    const double ns = timed(traced ? &c.tracer : nullptr, "step.table_all", [&] {
      out = tableAll(c, traced ? &c.tracer : nullptr, &computeNs, &renderNs,
                     incidents);
    });
    check(out == c.refTableAll,
          "in-process table all differs from the CLI --jobs 1 reference");
    double retries = 0.0;
    for (const report::CellIncident& i : incidents) {
      retries += std::max(0, i.attempts - 1);
    }
    c.counts["report.cell_retries"] = retries;
    if (traced) {
      c.samples["report.compute_tables_ms"].push_back(computeNs / 1e6);
      c.samples["report.render_ms"].push_back(renderNs / 1e6);
      c.samples["step.table_all.traced_ms"].push_back(ns / 1e6);
    } else {
      c.samples["step.table_all.untraced_ms"].push_back(ns / 1e6);
    }
  }
}

// --- memlab ------------------------------------------------------------------

void stepMemlab(Ctx& c) {
  std::vector<report::CellIncident> incidents;
  std::vector<report::SweepRow> sweep;
  c.samples["memlab.compute_sweep_ms"].push_back(
      timed(&c.tracer, "memlab.compute_sweep",
            [&] { sweep = report::computeSweep(c.opt, &incidents); }) /
      1e6);
  std::string out = report::renderSweep(sweep, &incidents).renderAscii();
  if (const std::string chart = report::renderSweepChart(sweep); !chart.empty()) {
    out += '\n' + chart;
  }
  check(out + '\n' == c.refSweep, "in-process sweep differs from the CLI reference");

  std::vector<report::ChaseRow> chase;
  c.samples["memlab.compute_chase_ms"].push_back(
      timed(&c.tracer, "memlab.compute_chase",
            [&] { chase = report::computeChase(c.opt, &incidents); }) /
      1e6);
  out = report::renderChaseNs(chase, &incidents).renderAscii() + '\n' +
        report::renderChaseClk(chase, &incidents).renderAscii();
  if (const std::string chart = report::renderChaseChart(chase); !chart.empty()) {
    out += '\n' + chart;
  }
  check(out + '\n' == c.refChase, "in-process chase differs from the CLI reference");
}

// --- memsim ------------------------------------------------------------------

void stepMemsim(Ctx& c) {
  constexpr int kRepeats = 20;
  std::size_t calls = 0;
  double sum = 0.0;
  const double ns = timed(&c.tracer, "memsim.bw_resolve", [&] {
    for (int r = 0; r < kRepeats; ++r) {
      for (const auto& [machine, placement] : c.placements) {
        const memsim::HostMemoryModel model(*machine);
        for (std::uint64_t ws = 16 * 1024; ws <= 256ull * 1024 * 1024; ws *= 2) {
          sum += model.achievableBandwidth(placement, ByteCount::bytes(ws)).inGBps();
          ++calls;
        }
      }
    }
  });
  check(std::isfinite(sum) && sum > 0.0, "achievableBandwidth returned a non-positive value");
  c.sink += sum;
  c.samples["memsim.bw_resolve_ns"].push_back(ns / static_cast<double>(calls));
  c.counts["memsim.bw_resolve_calls"] += static_cast<double>(calls);
}

// --- osu / babelstream / commscope ----------------------------------------------

void stepOsu(Ctx& c) {
  for (const machines::Machine* m : machines::cpuMachines()) {
    const auto pair = osu::onSocketPair(*m);
    osu::LatencyResult fast;
    c.samples["osu.latency_measure_us"].push_back(
        timed(&c.tracer, "osu.latency_measure", [&] {
          const osu::LatencyBenchmark bench(*m, pair.first, pair.second,
                                            mpisim::BufferSpace::Kind::Host);
          fast = bench.measure(osu::LatencyConfig{});
        }) /
        1e3);
    check(fast.latencyUs.mean > 0.0 && std::isfinite(fast.latencyUs.mean),
          "osu latency of " + m->info.name + " is not positive");
  }
}

/// The same ping-pong under a trace::Session, which takes the event path
/// through the scheduler; the analytic fast path must agree bit for bit.
void stepOsuTraced(Ctx& c) {
  const machines::Machine& m = *machines::cpuMachines().front();
  const auto pair = osu::onNodePair(m);
  osu::LatencyResult fast;
  {
    const osu::LatencyBenchmark bench(m, pair.first, pair.second,
                                      mpisim::BufferSpace::Kind::Host);
    fast = bench.measure(osu::LatencyConfig{});
  }
  trace::Session session;
  osu::LatencyResult traced;
  const double ns = timed(&c.tracer, "osu.latency_measure_traced", [&] {
    const trace::Scope scope("perfbench/osu");
    const osu::LatencyBenchmark bench(m, pair.first, pair.second,
                                      mpisim::BufferSpace::Kind::Host);
    traced = bench.measure(osu::LatencyConfig{});
  });
  std::uint64_t switches = 0;
  for (const trace::TraceBuffer* b : session.ordered()) {
    if (const auto it = b->counters().find("vt.switches"); it != b->counters().end()) {
      switches += it->second;
    }
  }
  check(traced.latencyUs.mean == fast.latencyUs.mean &&
            traced.latencyUs.stddev == fast.latencyUs.stddev,
        "event-path osu latency differs from the analytic fast path");
  check(switches > 0, "traced ping-pong recorded no scheduler switches");
  c.samples["osu.latency_measure_traced_us"].push_back(ns / 1e3);
  c.samples["mpisim.sched_switches"].push_back(static_cast<double>(switches));
  c.samples["sim.ns_per_switch"].push_back(ns / static_cast<double>(switches));
}

void stepBabelstream(Ctx& c) {
  for (const machines::Machine* m : machines::cpuMachines()) {
    babelstream::RunResult result;
    c.samples["babelstream.run_us"].push_back(
        timed(&c.tracer, "babelstream.run", [&] {
          babelstream::SimOmpBackend backend(*m, ompenv::OmpConfig{});
          result = babelstream::run(backend, babelstream::DriverConfig{});
        }) /
        1e3);
    check(result.best().bandwidthGBps.mean > 0.0,
          "babelstream bandwidth of " + m->info.name + " is not positive");
  }
}

void stepCommscope(Ctx& c) {
  for (const machines::Machine* m : machines::gpuMachines()) {
    commscope::MachineResults result;
    c.samples["commscope.suite_us"].push_back(
        timed(&c.tracer, "commscope.suite", [&] {
          commscope::CommScope scope(*m);
          result = scope.measureAll(commscope::Config{});
        }) /
        1e3);
    check(result.launchUs.mean > 0.0,
          "commscope launch latency of " + m->info.name + " is not positive");
  }
}

// --- trace -------------------------------------------------------------------

void stepTraceExport(Ctx& c) {
  trace::Session session;
  timed(&c.tracer, "trace.compute_table5",
        [&] { c.sink += static_cast<double>(report::computeTable5(c.opt).size()); });
  std::string json;
  c.samples["trace.finish_ms"].push_back(
      timed(&c.tracer, "trace.finish", [&] { json = trace::chromeJson(session); }) /
      1e6);
  c.counts["trace.bytes"] = static_cast<double>(json.size());
  check(json == c.refTrace, "in-process Table 5 trace differs from the CLI trace file");
}

// --- campaign ------------------------------------------------------------------

void stepJournal(Ctx& c) {
  const fs::path path = c.scratch / "append.journal";
  fs::remove(path);
  {
    const auto journal = campaign::Journal::create(path.string(), c.refJournal.config);
    for (const campaign::CellRecord& record : c.refJournal.records) {
      c.samples["campaign.journal_append_us"].push_back(
          timed(&c.tracer, "campaign.journal_append",
                [&] { journal->append(record); }) /
          1e3);
    }
  }
  c.counts["campaign.journal_appends"] +=
      static_cast<double>(c.refJournal.records.size());
  check(readFile(path) == c.refJournalBytes,
        "re-appended journal differs from the CLI --jobs 1 journal");

  std::size_t replayed = 0;
  c.samples["campaign.journal_resume_ms"].push_back(
      timed(&c.tracer, "campaign.journal_resume", [&] {
        const auto journal =
            campaign::Journal::resume(path.string(), c.refJournal.config);
        replayed = journal->recordCount();
      }) /
      1e6);
  check(replayed == c.refJournal.records.size(), "resume replayed a different record count");
}

void stepMerge(Ctx& c) {
  campaign::MergedCampaign merged;
  c.samples["campaign.merge_journals_ms"].push_back(
      timed(&c.tracer, "campaign.merge_journals", [&] {
        std::vector<campaign::ShardInput> inputs;
        for (int i = 0; i < 4; ++i) {
          inputs.push_back(campaign::readShardInput(
              (c.work / "shard" / ("journal.shard" + std::to_string(i) + "of4")).string()));
        }
        merged = campaign::mergeShardJournals(inputs);
      }) /
      1e6);
  check(std::string(merged.journalBytes.begin(), merged.journalBytes.end()) ==
            c.refJournalBytes,
        "merged shard journals differ from the --jobs 1 journal");
  std::vector<std::uint8_t> store;
  c.samples["stats.merge_stores_ms"].push_back(
      timed(&c.tracer, "stats.merge_stores", [&] {
        std::vector<stats::ShardStoreInput> inputs;
        for (int i = 0; i < 4; ++i) {
          inputs.push_back(stats::loadShardStoreInput(
              (c.work / "shard" / ("store.shard" + std::to_string(i) + "of4")).string()));
        }
        store = stats::mergeShardStores(inputs, merged);
      }) /
      1e6);
  check(std::string(store.begin(), store.end()) == c.refStoreBytes,
        "merged shard stores differ from the --jobs 1 store");
}

// --- stats -------------------------------------------------------------------

void stepStore(Ctx& c) {
  const fs::path path = c.scratch / "append.store";
  fs::remove(path);
  {
    const auto store = stats::ResultStore::create(path.string(), c.refStore.config);
    for (const stats::SampleRecord& record : c.refStore.records) {
      c.samples["stats.store_append_us"].push_back(
          timed(&c.tracer, "stats.store_append", [&] { store->append(record); }) /
          1e3);
    }
  }
  check(readFile(path) == c.refStoreBytes, "re-appended store differs from the CLI store");
  stats::StoreContents loaded;
  c.samples["stats.store_load_ms"].push_back(
      timed(&c.tracer, "stats.store_load",
            [&] { loaded = stats::ResultStore::load(path.string()); }) /
      1e6);
  check(loaded.records.size() == c.refStore.records.size(), "store load lost records");
}

/// The gate's comparison, on the clean pair or the regression pair by a
/// seeded coin: the clean pair must pass, the regression pair must fail.
void stepCompare(Ctx& c) {
  const bool regress = (c.rng() & 1U) != 0;
  stats::CompareReport rep;
  c.samples["stats.compare_ms"].push_back(
      timed(&c.tracer, "stats.compare", [&] {
        rep = stats::compareStores(c.refStore, regress ? c.regressStore : c.refStore);
      }) /
      1e6);
  c.counts["stats.compare_cells"] = static_cast<double>(rep.cells.size());
  check(stats::gateExit(rep) == (regress ? stats::kGateRegressionExitCode : 0),
        regress ? "gate passed the regression pair" : "gate failed the clean pair");
}

// --- machines -----------------------------------------------------------------

void stepRegistry(Ctx& c) {
  std::vector<machines::Machine> all;
  c.samples["machines.registry_ms"].push_back(
      timed(&c.tracer, "machines.registry", [&] {
        all = {machines::makeFrontier(), machines::makeSummit(),
               machines::makeSierra(),   machines::makePerlmutter(),
               machines::makePolaris(),  machines::makeTrinity(),
               machines::makeLassen(),   machines::makeTheta(),
               machines::makeSawtooth(), machines::makeRZVernal(),
               machines::makeEagle(),    machines::makeTioga(),
               machines::makeManzano()};
        for (const machines::Machine& m : all) {
          machines::ensureValid(m);
        }
      }) /
      1e6);
  const auto& registry = machines::allMachines();
  check(all.size() == registry.size(), "registry size changed");
  for (std::size_t i = 0; i < all.size(); ++i) {
    check(all[i].info.name == registry[i].info.name, "registry order changed");
  }
}

// --- serve -------------------------------------------------------------------

/// The request bodies the serve layers decode and parse: the fixed
/// memo-hit spec set of the serve-mix workload (run.py HIT_SPECS), and
/// cold specs in its unique-key space. The memo itself is measured by the
/// runner, through the real daemon, with its one HTTP client.
const std::vector<std::string>& hitSpecs() {
  static const std::vector<std::string> specs = {
      R"({"tables":[4],"runs":100})",
      R"({"tables":[5],"runs":100})",
      R"({"tables":[6],"runs":100})",
      R"({"families":["sweep"],"runs":100})",
  };
  return specs;
}

/// A cold spec: a measurement key no other request of this run shares
/// (runs 101..164 x cell_retries 0..100, none equal to a hit spec).
constexpr std::uint64_t kColdKeys = 64 * 101;
std::string coldSpec(std::uint64_t k) {
  return R"({"tables":[4],"runs":)" + std::to_string(101 + k % 64) +
         R"(,"cell_retries":)" + std::to_string(k / 64 % 101) + "}";
}

void stepServeDecode(Ctx& c) {
  for (const std::string& body : c.serveBodies) {
    std::string canonical;
    std::string key;
    c.samples["serve.request_decode_us"].push_back(
        timed(&c.tracer, "serve.request_decode", [&] {
          const serve::CampaignRequest req = serve::CampaignRequest::fromJson(body);
          canonical = req.canonicalJson();
          key = req.measurementKey();
        }) /
        1e3);
    check(!key.empty() &&
              serve::CampaignRequest::fromJson(canonical).canonicalJson() == canonical,
          "canonical request JSON is not a fixed point");
  }
}

void stepHttpParse(Ctx& c) {
  int fds[2] = {-1, -1};
  check(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0, "socketpair failed");
  try {
    for (const std::string& body : c.serveBodies) {
      const std::string raw = "POST /requests HTTP/1.1\r\nHost: localhost\r\n"
                              "Content-Type: application/json\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
      check(write(fds[0], raw.data(), raw.size()) ==
                static_cast<ssize_t>(raw.size()),
            "socketpair write failed");
      std::optional<serve::HttpRequest> req;
      c.samples["serve.http_parse_us"].push_back(
          timed(&c.tracer, "serve.http_parse",
                [&] { req = serve::readHttpRequest(fds[1], 1000); }) /
          1e3);
      check(req && req->method == "POST" && req->target == "/requests" &&
                req->body == body,
            "readHttpRequest returned a different request");
    }
  } catch (...) {
    close(fds[0]);
    close(fds[1]);
    throw;
  }
  close(fds[0]);
  close(fds[1]);
}

// --- driver ------------------------------------------------------------------

void loadReferences(Ctx& c) {
  const fs::path ref = c.work / "ref";
  c.refTableAll = readFile(ref / "table_all.txt");
  c.refSweep = readFile(ref / "sweep.txt");
  c.refChase = readFile(ref / "chase.txt");
  c.refTrace = readFile(ref / "table5.trace.json");
  c.refJournalBytes = readFile(ref / "ref.journal");
  c.refJournal = campaign::Journal::decode(bytesOf(c.refJournalBytes));
  c.refStoreBytes = readFile(ref / "ref.store");
  c.refStore = stats::ResultStore::decode(bytesOf(c.refStoreBytes));
  c.regressStore = stats::ResultStore::load((ref / "regress.store").string());
  for (const machines::Machine& m : machines::allMachines()) {
    c.placements.emplace_back(&m, ompenv::place(m.topology, ompenv::OmpConfig{}));
  }
  for (std::size_t i = 0; i < 48; ++i) {
    c.serveBodies.push_back(i % 2 == 0 ? hitSpecs()[i / 2 % hitSpecs().size()]
                                       : coldSpec(c.rng() % kColdKeys));
  }
  c.counts["report.cells"] = static_cast<double>(c.refJournal.records.size());
}

void writeSpans(const Tracer& tracer, const fs::path& path) {
  std::ofstream out(path, std::ios::binary);
  for (const Span& s : tracer.spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"round\":" << s.round << ",\"name\":\"" << jsonEscape(s.name)
        << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs << "}\n";
  }
  if (!out) {
    throw std::runtime_error("cannot write spans to " + path.string());
  }
}

std::string argValue(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) {
      return argv[i + 1];
    }
  }
  throw std::runtime_error("missing " + flag);
}

int run(int argc, char** argv) {
  Ctx c;
  c.rng.seed(std::stoull(argValue(argc, argv, "--seed")));
  const double seconds = std::stod(argValue(argc, argv, "--seconds"));
  c.work = argValue(argc, argv, "--work");
  const fs::path spansPath = argValue(argc, argv, "--spans");
  c.scratch = c.work / "layers";
  fs::create_directories(c.scratch);
  loadReferences(c);

  const std::vector<std::pair<std::string, std::function<void(Ctx&)>>> steps = {
      {"table_all", stepTableAll},   {"memlab", stepMemlab},
      {"memsim", stepMemsim},        {"osu", stepOsu},
      {"osu_traced", stepOsuTraced}, {"babelstream", stepBabelstream},
      {"commscope", stepCommscope},  {"trace_export", stepTraceExport},
      {"journal", stepJournal},      {"merge", stepMerge},
      {"store", stepStore},          {"compare", stepCompare},
      {"registry", stepRegistry},    {"serve_decode", stepServeDecode},
      {"http_parse", stepHttpParse},
  };
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  const auto attempt = [&](const std::string& name, const std::function<void(Ctx&)>& fn) {
    ++attempted;
    const std::size_t depth = c.tracer.depth();
    try {
      fn(c);
    } catch (const std::exception& e) {
      c.tracer.unwind(depth);
      failures.push_back(name + ": " + e.what());
    }
  };
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(seconds * 1e9);
  int round = 0;
  std::vector<std::size_t> order(steps.size());
  do {
    c.tracer.setRound(round++);
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::shuffle(order.begin(), order.end(), c.rng);
    for (const std::size_t i : order) {
      attempt(steps[i].first, steps[i].second);
    }
  } while (nowNs() < deadline);
  writeSpans(c.tracer, spansPath);

  std::map<std::string, double> metrics = c.counts;
  for (const auto& [name, values] : c.samples) {
    metrics[name] = quantile(values, 0.5);
  }
  metrics["campaign.journal_append_p90_us"] =
      quantile(c.samples["campaign.journal_append_us"], 0.9);
  const double untraced = metrics["step.table_all.untraced_ms"];
  metrics["bench.trace_overhead_pct"] =
      untraced > 0 ? (metrics["step.table_all.traced_ms"] - untraced) / untraced * 100.0
                   : 0.0;

  std::ostringstream out;
  out.precision(17);
  out << "{\"attempted\":" << attempted << ",\"failed\":" << failures.size()
      << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i ? "," : "") << '"' << jsonEscape(failures[i]) << '"';
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ",") << '"' << name << "\":" << value;
    first = false;
  }
  out << "},\"sink\":" << c.sink << "}\n";
  std::cout << out.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: error: " << e.what() << "\n";
    return 1;
  }
}
