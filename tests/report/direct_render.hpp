#pragma once
/// \file direct_render.hpp
/// \brief Reference text of every table selector, composed directly from
/// the report layer's compute/render functions: what `nodebench table
/// <label>` prints for one selector, minus its separating newline. The
/// family registry and the serve daemon are checked against it.

#include <string>
#include <vector>

#include "report/memlab_report.hpp"
#include "report/tables.hpp"

namespace nodebench::report {

inline std::string directRenderText(const std::string& label,
                                    const TableOptions& opt) {
  std::vector<CellIncident> incidents;
  const auto withChart = [](std::string text, const std::string& chart) {
    return chart.empty() ? text : text + "\n" + chart;
  };
  if (label == "sweep") {
    const auto rows = computeSweep(opt, &incidents);
    return withChart(renderSweep(rows, &incidents).renderAscii(),
                     renderSweepChart(rows));
  }
  if (label == "chase") {
    const auto rows = computeChase(opt, &incidents);
    return withChart(renderChaseNs(rows, &incidents).renderAscii() + "\n" +
                         renderChaseClk(rows, &incidents).renderAscii(),
                     renderChaseChart(rows));
  }
  switch (std::stoi(label)) {
    case 1: return buildTable1().renderAscii();
    case 2: return buildTable2().renderAscii();
    case 3: return buildTable3().renderAscii();
    case 4:
      return renderTable4(computeTable4(opt, &incidents), &incidents)
          .renderAscii();
    case 5:
      return renderTable5(computeTable5(opt, &incidents), &incidents)
          .renderAscii();
    case 6:
      return renderTable6(computeTable6(opt, &incidents), &incidents)
          .renderAscii();
    case 7: {
      const auto t5 = computeTable5(opt, &incidents);
      const auto t6 = computeTable6(opt, &incidents);
      return buildTable7(t5, t6, &incidents).renderAscii();
    }
    case 8: return buildTable8().renderAscii();
    case 9: return buildTable9().renderAscii();
    default: return "";
  }
}

}  // namespace nodebench::report
