#pragma once
/// \file family.hpp
/// \brief The benchmark family registry: the one place that decides which
/// table selectors exist and how each one is computed and rendered.
///
/// `nodebench table <selector>` (and its `sweep`/`chase` aliases),
/// `nodebench supervise` and the serve daemon all resolve selectors here,
/// so every driver offers the same families and prints the same text.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "report/tables.hpp"

namespace nodebench::report {

struct Family {
  std::string_view name;  ///< Selector: "1".."9", "sweep", "chase".
  /// One of the paper's nine tables; these are what `all` expands to.
  bool paperTable = false;
  /// Measures (when the family measures anything) and renders the text
  /// `table <name>` prints before its separating blank line. Measured
  /// families append their incidents to `incidents`; Table 7 computes
  /// Tables 5 and 6 itself; the memlab families append their chart after
  /// "\n".
  std::string (*render)(const TableOptions& opt,
                        std::vector<CellIncident>* incidents) = nullptr;
};

/// Every family in registry order: Tables 1-9, then sweep, then chase.
[[nodiscard]] std::span<const Family> families();

/// The family named exactly `name`, or nullptr.
[[nodiscard]] const Family* findFamily(std::string_view name);

/// The families a `table`/`supervise` selector names: the paper tables for
/// "all", else the one registry entry. Throws Error naming the selector
/// and the valid ones for anything else.
[[nodiscard]] std::vector<const Family*> selectFamilies(
    std::string_view selector);

}  // namespace nodebench::report
