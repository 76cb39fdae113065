// The paper's §1 walkthrough, scenario 1 ("new information about the
// data"): table R(Employee, Skill) gains an Address attribute; later we
// learn employees have multiple skills, so R is decomposed into
// S(Employee, Skill) and T(Employee, Address) to remove redundancy and
// update anomalies — Figure 1's schema 1 → schema 2 evolution, executed
// at the data level with the evolution status shown step by step.
//
//   $ ./build/examples/employee_evolution

#include <cstdlib>
#include <iostream>

#include "evolution/engine.h"
#include "storage/printer.h"
#include "storage/scanner.h"

using namespace cods;

namespace {

std::shared_ptr<const Table> InitialEmployeeTable() {
  Schema schema({{"Employee", DataType::kString},
                 {"Skill", DataType::kString}},
                {});
  TableBuilder builder("R", schema);
  const char* rows[][2] = {
      {"Jones", "Typing"},          {"Jones", "Shorthand"},
      {"Roberts", "Light Cleaning"}, {"Ellis", "Alchemy"},
      {"Jones", "Whittling"},       {"Ellis", "Juggling"},
      {"Harrison", "Light Cleaning"}};
  for (auto& r : rows) {
    CODS_CHECK_OK(builder.AppendRow({Value(r[0]), Value(r[1])}));
  }
  return builder.Finish().ValueOrDie();
}

// Address of each employee, as it "emerges" later (paper Figure 1).
Value AddressOf(const Value& employee) {
  const std::string& e = employee.str();
  if (e == "Jones" || e == "Harrison") return Value("425 Grant Ave");
  return Value("747 Industrial Way");
}

}  // namespace

int main() {
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(InitialEmployeeTable()));
  LoggingObserver status;  // the demo's "Data Evolution Status" pane
  EvolutionEngine engine(&catalog, &status,
                         EngineOptions{.validate_preconditions = true});

  std::cout << "== Schema v0: employees and skills ==\n"
            << FormatTable(*catalog.GetTable("R").ValueOrDie()) << "\n";

  // ---- Evolution 1: address information emerges → ADD COLUMN. ----------
  // The demo supports loading per-row data for the new column; here we
  // compute it from the employee attribute.
  {
    auto r = catalog.GetTable("R").ValueOrDie();
    std::vector<Value> addresses;
    TableScanner scanner(*r, {0});
    for (uint64_t row = 0; row < r->rows(); ++row) {
      addresses.push_back(AddressOf(scanner.GetRow(row)[0]));
    }
    auto with_addr = AddColumnWithDataOp(
        *r, {"Address", DataType::kString}, addresses);
    CODS_CHECK_OK(with_addr.status());
    catalog.PutTable(with_addr.ValueOrDie());
  }
  std::cout << "== Schema v1: Address column added ==\n"
            << FormatTable(*catalog.GetTable("R").ValueOrDie()) << "\n";

  // ---- Evolution 2: redundancy spotted → DECOMPOSE (schema 1 → 2). -----
  // Addresses repeat once per skill; decomposing on the FD
  // Employee → Address removes the redundancy.
  CODS_CHECK_OK(engine.Apply(Smo::DecomposeTable(
      "R", "S", {"Employee", "Skill"}, {"Employee", "Skill"}, "T",
      {"Employee", "Address"}, {"Employee"})));
  std::cout << "\n== Schema v2: decomposed ==\n"
            << FormatTable(*catalog.GetTable("S").ValueOrDie()) << "\n"
            << FormatTable(*catalog.GetTable("T").ValueOrDie()) << "\n";

  // ---- Evolution 3: workload turns query-heavy → MERGE (schema 2 → 1).
  // Most queries now look up addresses given skills; the join hurts, so
  // evolve back to the wide schema.
  CODS_CHECK_OK(
      engine.Apply(Smo::MergeTables("S", "T", "R", {"Employee"}, {})));
  std::cout << "\n== Schema v3: merged back for the query-heavy workload "
               "==\n"
            << FormatTable(*catalog.GetTable("R").ValueOrDie());

  return EXIT_SUCCESS;
}
