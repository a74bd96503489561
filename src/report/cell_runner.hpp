#pragma once
/// \file cell_runner.hpp
/// \brief The cell-grained measurement harness shared by every table and
/// benchmark family in `report/`.
///
/// `runCell` composes, in order: cooperative cancellation, shard-slice
/// skip, per-cell trace scope, results-store probe, journal replay, the
/// injectable test delay, and the resilient retry loop with
/// deterministic noise salts — the contract that makes `--jobs`,
/// `--faults`, `--trace`, `--journal --resume`, `--store`, `--shard`,
/// serve and supervise compose for free for any family built on it.
/// `runGrid` runs a family's whole (machine x cell) grid through it from
/// one task list, and `CellRun::summary` is the common one-Summary cell,
/// so a compute function supplies only its tasks and a per-task measure.
/// The semantics here are pinned by the campaign/shard/serve test suites
/// and must not drift per family.

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/shard.hpp"
#include "core/parallel.hpp"
#include "core/samples.hpp"
#include "faults/fault_plan.hpp"
#include "report/tables.hpp"
#include "stats/store.hpp"
#include "trace/trace.hpp"

namespace nodebench::report::cellrun {

/// Runs one cell measurement under the resilient retry policy. Attempt 0
/// runs with salt 0 so fault-free output is byte-identical to the
/// historical harness; each retry re-derives a deterministic salt the
/// body folds into its noise seeds. On exhaustion the slot stays
/// `failed`, the row keeps its zero-initialised value and the renderer
/// degrades the cell to "n/a".
///
/// Under a campaign journal (opt.journal), an already-journalled cell is
/// *replayed* instead of re-measured: `load` restores the row fields from
/// the record's bit-exact payload and the incident slot is restored so
/// the diagnostics appendix matches too. A freshly measured cell is
/// persisted via `save` before the harness moves on — cells are
/// independent (identity-derived seeds), so skipping measured ones cannot
/// shift any other cell's noise streams, which is what makes a resumed
/// campaign byte-identical to an uninterrupted one.
///
/// Under a results store (opt.store), the cell additionally persists its
/// raw per-repetition samples: a SampleCapture is installed around each
/// attempt and `storeSave` turns the captured channels into store
/// records. A cell the store already holds skips that; a cell the store
/// *lacks* is re-measured even when the journal could replay it, because
/// journal payloads carry only summaries — re-measurement reproduces the
/// identical values (identity-derived seeds) and the journal append
/// below stays an idempotent no-op.
template <typename Body, typename Save, typename Load, typename StoreSave>
void runCell(const TableOptions& opt, const machines::Machine& m,
             std::string cell, CellIncident& slot, Body&& body, Save&& save,
             Load&& load, StoreSave&& storeSave) {
  // Cooperative cancellation is cell-grained: a set token skips cells that
  // have not started (this check), cells already past it finish and
  // journal normally, and runGrid throws CancelledError after the
  // fan-out. A skipped slot keeps attempts == 0, so it is
  // neither an incident nor a journal record — a --resume run re-measures
  // exactly the skipped cells and lands byte-identical.
  if (opt.cancel != nullptr && opt.cancel->requested()) {
    return;
  }
  // Shard skip comes before everything else (including the store
  // containsCell probe): a cell outside this shard's slice leaves no
  // journal record, no store record, no incident, and a zeroed row —
  // `nodebench merge` rebuilds the full artifact from the shard set.
  if (opt.shard != nullptr && !opt.shard->assigned(m.info.name, cell)) {
    return;
  }
  slot.machine = m.info.name;
  slot.cell = std::move(cell);
  // One trace scope per cell (covering retries): model objects the body
  // constructs capture this buffer, so a traced table run yields one
  // "<machine>/<cell>" process per measurement in the exported trace.
  // Labels are unique within a table's parallel fan-out, which keeps the
  // export deterministic at any --jobs (no-op without --trace/--metrics).
  trace::Scope traceScope(slot.machine + "/" + slot.cell);
  const bool wantStore =
      opt.store != nullptr && !opt.store->containsCell(slot.machine, slot.cell);
  if (opt.journal != nullptr && !wantStore) {
    if (const campaign::CellRecord* rec =
            opt.journal->find(slot.machine, slot.cell)) {
      slot.attempts = static_cast<int>(rec->attempts);
      slot.failed = rec->failed;
      slot.error = rec->error;
      if (!rec->failed) {
        campaign::PayloadReader r(rec->payload);
        load(r);
      }
      return;
    }
  }
  if (opt.testCellDelayMs > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.testCellDelayMs));
  }
  std::optional<SampleCapture> capture;
  const int maxAttempts = std::max(1, opt.cellRetries + 1);
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    if (attempt > 0 && opt.retryBackoffBaseMs > 0) {
      // Capped exponential backoff before each retry. Wall-clock only:
      // the retry's noise salt below is derived from the attempt index,
      // not from time, so backed-off output matches immediate retries.
      const int shift = std::min(attempt - 1, 20);
      const long delay =
          std::min(static_cast<long>(opt.retryBackoffMaxMs),
                   static_cast<long>(opt.retryBackoffBaseMs) << shift);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    ++slot.attempts;
    try {
      if (wantStore) {
        capture.emplace();  // fresh per attempt: no stale samples on retry
      }
      if (opt.faults != nullptr &&
          opt.faults->shouldFailAttempt(slot.machine, slot.cell, attempt)) {
        throw Error("injected flaky-cell failure (attempt " +
                    std::to_string(attempt + 1) + ")");
      }
      const std::uint64_t salt =
          attempt == 0 ? 0
                       : par::taskSeed(0xfa157a7full,
                                       static_cast<std::uint64_t>(attempt));
      body(salt);
      slot.failed = false;
      break;
    } catch (const std::exception& e) {
      slot.failed = true;
      slot.error = e.what();
    }
  }
  if (wantStore && !slot.failed) {
    storeSave(*capture);
  }
  if (opt.journal != nullptr) {
    campaign::CellRecord rec;
    rec.machine = slot.machine;
    rec.cell = slot.cell;
    rec.attempts = static_cast<std::uint32_t>(slot.attempts);
    rec.failed = slot.failed;
    rec.error = slot.error;
    if (!slot.failed) {
      campaign::PayloadWriter w;
      save(w);
      rec.payload = w.bytes();
    }
    opt.journal->append(std::move(rec));
  }
}

/// Applies the optional TableOptions machine subset to a registry list,
/// preserving registry order. Unknown names simply select nothing here;
/// callers that must reject them (the serve request decoder) validate
/// against the registry up front.
inline std::vector<const machines::Machine*> filteredMachines(
    std::vector<const machines::Machine*> ms, const TableOptions& opt) {
  if (opt.machines == nullptr) {
    return ms;
  }
  std::vector<const machines::Machine*> out;
  for (const machines::Machine* m : ms) {
    if (std::find(opt.machines->begin(), opt.machines->end(), m->info.name) !=
        opt.machines->end()) {
      out.push_back(m);
    }
  }
  return out;
}

inline bool cellFailed(const std::vector<CellIncident>* incidents,
                       const std::string& machine, const std::string& cell) {
  if (incidents == nullptr) {
    return false;
  }
  return std::any_of(incidents->begin(), incidents->end(),
                     [&](const CellIncident& i) {
                       return i.failed && i.machine == machine &&
                              i.cell == cell;
                     });
}

inline std::string naOr(bool failed, std::string value) {
  return failed ? std::string("n/a") : std::move(value);
}

/// One task of a family's grid: the machine (an index into the family's
/// machine list) and the canonical cell name. Families that need more per
/// task (a cell kind, a link class, a grid point) derive from it.
struct GridTask {
  std::size_t machine = 0;
  std::string cell;
};

/// What a store record of a cell measures.
struct Quantity {
  const char* name;
  const char* unit;
  stats::Better better;
};

/// A measured value and the sample-capture channel its raw draws landed
/// in.
struct Sampled {
  Summary value;
  std::string channel;
};

/// One task of runGrid, bound to its machine, cell name and incident
/// slot. A family's `measure` calls exactly one of `run` (a cell with its
/// own payload codec) or `summary` (the common one-Summary cell).
class CellRun {
 public:
  CellRun(const TableOptions& opt, const machines::Machine& m,
          const std::string& cell, CellIncident& slot)
      : opt_(opt), m_(m), cell_(cell), slot_(slot) {}

  /// The machine to measure: the registry machine, or its fault-perturbed
  /// copy under a plan.
  [[nodiscard]] const machines::Machine& machine() const { return m_; }

  /// Runs the cell through runCell with an explicit journal codec;
  /// `storeSave(capture)` writes the cell's store records via `record`.
  template <typename Body, typename Save, typename Load, typename StoreSave>
  void run(Body&& body, Save&& save, Load&& load, StoreSave&& storeSave) {
    runCell(opt_, m_, cell_, slot_, body, save, load, storeSave);
  }

  /// Appends one store record of this cell. The store encoder enforces
  /// samples.size() == summary.count — every channel records exactly one
  /// value per binary run, so a full capture always matches.
  void record(const Quantity& quantity, const Summary& summary,
              std::vector<double> samples) const {
    stats::SampleRecord rec;
    rec.machine = slot_.machine;
    rec.cell = slot_.cell;
    rec.quantity = quantity.name;
    rec.unit = quantity.unit;
    rec.better = quantity.better;
    rec.summary = summary;
    rec.samples = std::move(samples);
    opt_.store->append(std::move(rec));
  }

  /// The common cell: one Summary is the whole journal payload and one
  /// store record of `quantity`. `measure(salt)` returns a Sampled;
  /// `assign(value)` writes the value into the family's row. It runs only
  /// for a measured or replayed cell, so a skipped cell leaves the row
  /// untouched (an optional field stays disengaged).
  template <typename Measure, typename Assign>
  void summary(const Quantity& quantity, Measure&& measure, Assign&& assign) {
    Summary value;
    std::string channel;
    run(
        [&](std::uint64_t salt) {
          Sampled s = measure(salt);
          value = s.value;
          channel = std::move(s.channel);
          assign(value);
        },
        [&](campaign::PayloadWriter& w) { campaign::putSummary(w, value); },
        [&](campaign::PayloadReader& r) {
          value = campaign::readSummary(r);
          assign(value);
        },
        [&](SampleCapture& cap) {
          record(quantity, value, cap.take(channel));
        });
  }

 private:
  const TableOptions& opt_;
  const machines::Machine& m_;
  const std::string& cell_;
  CellIncident& slot_;
};

/// Runs one family's (machine x cell) grid: the protocol every measured
/// family shares. The task list is the one definition of the grid — its
/// order and cell names are both the shard manifest registered under
/// `label` and the journal record order of a --jobs 1 run, which is what
/// `nodebench merge` reconstructs. Each task runs `measure(task, cell)`
/// on the harness workers (opt.jobs) and writes only its own row fields
/// and incident slot; afterwards a set cancel token throws, and the
/// retried or failed cells are appended to `incidents` in task order.
template <typename Task, typename Measure>
void runGrid(const TableOptions& opt, const char* label,
             const std::vector<const machines::Machine*>& ms,
             const std::vector<Task>& tasks,
             std::vector<CellIncident>* incidents, Measure&& measure) {
  // The machines measured: registry pointers verbatim without a fault
  // plan (identity preserved for golden tests and Table 7), per-machine
  // perturbed copies under one.
  std::vector<machines::Machine> faulted;
  if (opt.faults != nullptr) {
    faulted.reserve(ms.size());
    for (const machines::Machine* m : ms) {
      faulted.push_back(opt.faults->applyToMachine(*m));
    }
  }
  if (opt.shard != nullptr) {
    std::vector<campaign::GridCell> grid;
    grid.reserve(tasks.size());
    for (const GridTask& task : tasks) {
      grid.push_back({ms[task.machine]->info.name, task.cell});
    }
    opt.shard->registerTable(label, std::move(grid), opt.journal);
  }
  std::vector<CellIncident> slots(tasks.size());
  par::parallelForEach(
      tasks.size(),
      [&](std::size_t t) {
        const std::size_t i = tasks[t].machine;
        CellRun cell(opt, faulted.empty() ? *ms[i] : faulted[i],
                     tasks[t].cell, slots[t]);
        measure(tasks[t], cell);
      },
      opt.jobs);
  // Every in-flight cell has finished and journalled by now, so this is
  // the safe point to abandon the partial table.
  if (opt.cancel != nullptr) {
    opt.cancel->throwIfRequested();
  }
  if (incidents != nullptr) {
    for (CellIncident& slot : slots) {
      if (slot.attempts > 1 || slot.failed) {
        incidents->push_back(std::move(slot));
      }
    }
  }
}

}  // namespace nodebench::report::cellrun
