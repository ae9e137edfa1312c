// Input generation for the three workloads. Runs before any timed run, so
// generator time and memory are never measured. Every expected answer the
// checks use is fixed here, from the construction or from the Ullmann
// baseline matcher (src/baseline), never from the SubGemini matcher the
// workloads time.
#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/baseline.hpp"
#include "cells/cells.hpp"
#include "common.hpp"
#include "gen/generators.hpp"
#include "spice/spice.hpp"
#include "util/rng.hpp"

namespace subg::e2e {

namespace {

/// Write every library cell as one SPICE deck of .subckt blocks.
std::string library_deck(const std::vector<std::string>& names) {
  cells::CellLibrary lib;
  std::string text;
  for (const std::string& name : names) {
    text += spice::write_string(lib.pattern(name));
  }
  return text;
}

/// Instances of `pattern` in `host` by full enumeration with the Ullmann
/// baseline; throws if its node budget runs out.
std::size_t oracle_count(const Netlist& pattern, const Netlist& host) {
  BaselineOptions options;
  options.node_budget = 2'000'000'000;
  const BaselineResult result = match_ullmann(pattern, host, options);
  if (result.budget_exhausted) {
    throw std::runtime_error("ullmann oracle ran out of budget");
  }
  return result.count();
}

void gen_soc_find(const std::string& dir) {
  // soc_grid takes no seed: the deck is the same for every seed.
  gen::Generated soc = gen::soc_grid(512, 326, 1024);
  write_file(dir + "/host.sp", spice::write_string(soc.netlist));
  write_file(dir + "/library.sp", library_deck({"nand2"}));
  json::Value manifest = json::Value::object();
  manifest.set("devices", soc.netlist.device_count());
  manifest.set("nets", soc.netlist.net_count());
  manifest.set("expected_instances", soc.placed_count("nand2"));
  write_file(dir + "/manifest.json", manifest.dump());
}

void gen_soup_extract(std::uint64_t seed, const std::string& dir) {
  gen::Generated soup = gen::logic_soup(20000, seed);
  write_file(dir + "/host.sp", spice::write_string(soup.netlist));
  write_file(dir + "/library.sp", library_deck(cells::CellLibrary::all_cells()));
  json::Value manifest = json::Value::object();
  manifest.set("devices", soup.netlist.device_count());
  manifest.set("nets", soup.netlist.net_count());
  write_file(dir + "/manifest.json", manifest.dump());
}

// The ECO script. Finds look for one of these patterns; patches plant one
// of the planted cells (each touches the rails) with fresh nets, or remove
// a cell an earlier patch planted, so every count is known in advance.
constexpr const char* kFindPatterns[] = {"nand2", "xor2", "dff", "tgate"};
constexpr const char* kPlantCells[] = {"nand2", "xor2", "dff", "mux2"};
constexpr std::size_t kPatches = 100;

std::string plant_delta(const Netlist& cell, const std::string& prefix) {
  std::string delta;
  for (std::uint32_t d = 0; d < cell.device_count(); ++d) {
    const DeviceId id(d);
    json::Value op = json::Value::object();
    op.set("op", "add_device");
    op.set("type", cell.device_type_info(id).name);
    op.set("name", prefix + cell.device_name(id));
    json::Value nets = json::Value::array();
    for (NetId n : cell.device_pins(id)) {
      nets.push(cell.is_global(n) ? cell.net_name(n)
                                  : prefix + cell.net_name(n));
    }
    op.set("nets", std::move(nets));
    delta += op.dump(-1) + "\n";
  }
  return delta;
}

std::string remove_delta(const Netlist& cell, const std::string& prefix) {
  std::string delta;
  for (std::uint32_t d = 0; d < cell.device_count(); ++d) {
    json::Value op = json::Value::object();
    op.set("op", "remove_device");
    op.set("name", prefix + cell.device_name(DeviceId(d)));
    delta += op.dump(-1) + "\n";
  }
  return delta;
}

void gen_soup_eco_serve(std::uint64_t seed, const std::string& dir) {
  gen::Generated soup = gen::logic_soup(5000, seed);
  write_file(dir + "/host.sp", spice::write_string(soup.netlist));

  cells::CellLibrary lib;
  constexpr std::size_t kFinds = std::size(kFindPatterns);
  constexpr std::size_t kPlants = std::size(kPlantCells);
  std::vector<Netlist> patterns;
  std::vector<std::string> pattern_text;
  for (const char* name : kFindPatterns) {
    patterns.push_back(lib.pattern(name));
    pattern_text.push_back(spice::write_string(patterns.back()));
  }
  std::vector<Netlist> plants;
  for (const char* name : kPlantCells) plants.push_back(lib.pattern(name));

  // Base counts over the whole host, and what one planted cell adds to
  // each pattern's count, both by the oracle.
  std::size_t base[kFinds];
  std::size_t adds[kFinds][kPlants];
  for (std::size_t p = 0; p < kFinds; ++p) {
    base[p] = oracle_count(patterns[p], soup.netlist);
    for (std::size_t c = 0; c < kPlants; ++c) {
      adds[p][c] = oracle_count(patterns[p], plants[c]);
    }
  }

  Xoshiro256 rng(seed ^ 0xEC0ULL);
  struct Planted {
    std::size_t cell;
    std::string prefix;
  };
  std::vector<Planted> alive;
  std::size_t serial = 0;
  std::uint64_t id = 0;
  std::string script;
  auto add_find = [&](std::size_t p) {
    std::size_t expect = base[p];
    for (const Planted& planted : alive) expect += adds[p][planted.cell];
    json::Value request = json::Value::object();
    request.set("id", ++id);
    request.set("op", "find");
    request.set("host", "soup");
    request.set("pattern", pattern_text[p]);
    json::Value step = json::Value::object();
    step.set("kind", "find");
    step.set("pattern", kFindPatterns[p]);
    step.set("expect", expect);
    step.set("request", request.dump(-1));
    script += step.dump(-1) + "\n";
  };
  // The mix is balanced so every seed does comparable work: finds cycle
  // through the patterns in shuffled rounds of four, and patches run in
  // shuffled rounds of three plants and two removals, the plants cycling
  // through the planted cells in shuffled rounds of four and the removals
  // taking the oldest planted cell.
  auto shuffled = [&](std::vector<std::size_t> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.below(i)]);
    }
    return items;
  };
  std::vector<std::size_t> find_round;
  std::vector<std::size_t> patch_round;
  std::vector<std::size_t> plant_round;
  auto add_patch = [&] {
    if (patch_round.empty()) patch_round = shuffled({0, 0, 0, 1, 1});
    bool plant = patch_round.back() == 0;
    patch_round.pop_back();
    if (alive.empty() && !plant) {
      // Nothing to remove yet: trade this removal for a later plant.
      const auto later = std::find(patch_round.begin(), patch_round.end(), 0);
      if (later != patch_round.end()) *later = 1;
      plant = true;
    }
    std::string delta;
    if (plant) {
      if (plant_round.empty()) plant_round = shuffled({0, 1, 2, 3});
      const std::size_t c = plant_round.back();
      plant_round.pop_back();
      Planted planted{c, "eco" + std::to_string(serial++) + "_"};
      delta = plant_delta(plants[c], planted.prefix);
      alive.push_back(std::move(planted));
    } else {
      // Oldest first: the removed cells then follow the balanced plant
      // rounds, and removing a 24-device dff costs far more than a nand2.
      delta = remove_delta(plants[alive.front().cell], alive.front().prefix);
      alive.erase(alive.begin());
    }
    json::Value request = json::Value::object();
    request.set("id", ++id);
    request.set("op", "patch");
    request.set("host", "soup");
    request.set("delta", delta);
    json::Value step = json::Value::object();
    step.set("kind", "patch");
    step.set("delta", delta);
    step.set("request", request.dump(-1));
    script += step.dump(-1) + "\n";
  };
  auto next_find = [&] {
    if (find_round.empty()) find_round = shuffled({0, 1, 2, 3});
    const std::size_t p = find_round.back();
    find_round.pop_back();
    return p;
  };
  for (std::size_t i = 0; i < kPatches; ++i) {
    add_patch();
    add_find(next_find());
  }
  // One last find per pattern: the warm reports the final check compares
  // against a cold build of the final netlist.
  for (std::size_t p = 0; p < kFinds; ++p) add_find(p);
  write_file(dir + "/script.jsonl", script);

  json::Value manifest = json::Value::object();
  manifest.set("devices", soup.netlist.device_count());
  manifest.set("nets", soup.netlist.net_count());
  manifest.set("final_finds", kFinds);
  write_file(dir + "/manifest.json", manifest.dump());
}

}  // namespace

void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir) {
  std::filesystem::create_directories(dir);
  if (workload == "soc_find") {
    gen_soc_find(dir);
  } else if (workload == "soup_extract") {
    gen_soup_extract(seed, dir);
  } else if (workload == "soup_eco_serve") {
    gen_soup_eco_serve(seed, dir);
  } else {
    throw std::runtime_error("unknown workload: " + workload);
  }
}

}  // namespace subg::e2e
