#include "report/family.hpp"

#include <array>

#include "core/error.hpp"
#include "report/memlab_report.hpp"

namespace nodebench::report {

namespace {

using Incidents = std::vector<CellIncident>;

template <Table (*build)()>
std::string renderStatic(const TableOptions&, Incidents*) {
  return build().renderAscii();
}

template <auto compute, auto render>
std::string renderMeasured(const TableOptions& opt, Incidents* incidents) {
  return render(compute(opt, incidents), incidents).renderAscii();
}

/// A digest of Tables 5 and 6; under a shared journal the cells those
/// tables already measured are replayed.
std::string renderTable7(const TableOptions& opt, Incidents* incidents) {
  const auto t5 = computeTable5(opt, incidents);
  const auto t6 = computeTable6(opt, incidents);
  return buildTable7(t5, t6, incidents).renderAscii();
}

std::string withChart(std::string text, const std::string& chart) {
  return chart.empty() ? text : text + "\n" + chart;
}

std::string renderSweepFamily(const TableOptions& opt, Incidents* incidents) {
  const auto rows = computeSweep(opt, incidents);
  return withChart(renderSweep(rows, incidents).renderAscii(),
                   renderSweepChart(rows));
}

std::string renderChaseFamily(const TableOptions& opt, Incidents* incidents) {
  const auto rows = computeChase(opt, incidents);
  return withChart(renderChaseNs(rows, incidents).renderAscii() + "\n" +
                       renderChaseClk(rows, incidents).renderAscii(),
                   renderChaseChart(rows));
}

constexpr std::array kFamilies = {
    Family{"1", true, renderStatic<buildTable1>},
    Family{"2", true, renderStatic<buildTable2>},
    Family{"3", true, renderStatic<buildTable3>},
    Family{"4", true, renderMeasured<computeTable4, renderTable4>},
    Family{"5", true, renderMeasured<computeTable5, renderTable5>},
    Family{"6", true, renderMeasured<computeTable6, renderTable6>},
    Family{"7", true, renderTable7},
    Family{"8", true, renderStatic<buildTable8>},
    Family{"9", true, renderStatic<buildTable9>},
    Family{"sweep", false, renderSweepFamily},
    Family{"chase", false, renderChaseFamily},
};

}  // namespace

std::span<const Family> families() { return kFamilies; }

const Family* findFamily(std::string_view name) {
  for (const Family& family : kFamilies) {
    if (family.name == name) {
      return &family;
    }
  }
  return nullptr;
}

std::vector<const Family*> selectFamilies(std::string_view selector) {
  std::vector<const Family*> out;
  if (selector == "all") {
    for (const Family& family : kFamilies) {
      if (family.paperTable) {
        out.push_back(&family);
      }
    }
  } else if (const Family* named = findFamily(selector)) {
    out.push_back(named);
  } else {
    std::string valid = "all";
    for (const Family& family : kFamilies) {
      valid += ", ";
      valid += family.name;
    }
    throw Error("unknown table selector '" + std::string(selector) +
                "' (valid: " + valid + ")");
  }
  return out;
}

}  // namespace nodebench::report
