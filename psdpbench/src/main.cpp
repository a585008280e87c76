// psdpbench: the repository benchmark's runner program.
//
//   psdpbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--commit SHA] [--param key=value ...]
//
// Runs one workload (serve-hot, serve-cold, large-factorized) with the fixed
// load definition handed over as --param pairs (run.py flattens the
// workload's object in workloads.json), checks every output, and prints as
// its last stdout line one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics of
// the outside-in trace with --trace 1 (spans are written to
// DIR/trace.json). Exit status: 0 when every correctness gate held, 1 when
// one failed (the result line is still printed), 2 on a refused or broken
// invocation (no result line).
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "layers.hpp"
#include "par/parallel.hpp"
#include "simd/simd.hpp"
#include "util/tunables.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace psdpbench;

/// The benchmark measures registry defaults only: any SIMD or tunable
/// override in the environment, or a registry value that is not its
/// default, refuses the run. Returns what is overridden ("" when clean).
std::string overrides() {
  std::string found;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    const std::string name = entry.substr(0, entry.find('='));
    if (name == "PSDP_SIMD" || name.rfind("PSDP_TUNE_", 0) == 0) {
      found += " " + name;
    }
  }
  const auto& registry = psdp::util::Tunables::all();
  for (std::size_t k = 0; k < registry.size(); ++k) {
    if (!psdp::util::tunables().is_default(
            static_cast<psdp::util::TunableId>(k))) {
      found += " tunable:" + registry[k].name;
    }
  }
  return found;
}

void print_json_number(std::ostream& out, double value) {
  std::ostringstream text;
  text.precision(17);
  text << value;
  out << text.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  Params params;
  std::string commit = "unknown";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--param") {
        const std::size_t eq = value.find('=');
        if (eq == std::string::npos) {
          throw std::runtime_error("--param needs key=value: " + value);
        }
        params.set(value.substr(0, eq), value.substr(eq + 1));
      } else {
        throw std::runtime_error("unknown flag " + flag);
      }
    }
    if (config.workload.empty() || config.work_dir.empty() ||
        !(config.seconds > 0)) {
      throw std::runtime_error(
          "--workload, --work-dir and a positive --seconds are required");
    }
  } catch (const std::exception& e) {
    std::cerr << "psdpbench: " << e.what() << "\n";
    return 2;
  }

  if (const std::string found = overrides(); !found.empty()) {
    std::cerr << "psdpbench: refusing to run with overrides set:" << found
              << " (the benchmark measures registry defaults)\n";
    return 2;
  }

  Outcome outcome;
  int pool_width = 0;
  try {
    pool_width = static_cast<int>(params.integer("threads"));
    psdp::par::set_num_threads(pool_width);

    std::string compiled;
    for (psdp::simd::Isa isa : psdp::simd::compiled_isas()) {
      compiled += std::string(compiled.empty() ? "" : ",") +
                  psdp::simd::isa_name(isa);
    }
    std::cout << "provenance: {\"workload\": \"" << config.workload
              << "\", \"seed\": " << config.seed
              << ", \"seconds\": " << config.seconds
              << ", \"trace\": " << (config.trace ? 1 : 0)
              << ", \"commit\": \"" << commit << "\", \"active_isa\": \""
              << psdp::simd::isa_name(psdp::simd::active_isa())
              << "\", \"compiled_isas\": \"" << compiled
              << "\", \"pool_width\": " << psdp::par::num_threads()
              << ", \"lanes\": "
              << (params.has("lanes") ? params.text("lanes") : "0")
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << "}\n";

    Tracer tracer(config.trace);
    if (config.workload == "serve-hot") {
      run_serve_hot(params, config, tracer, outcome);
    } else if (config.workload == "serve-cold") {
      run_serve_cold(params, config, tracer, outcome);
    } else if (config.workload == "large-factorized") {
      run_large_factorized(params, config, tracer, outcome);
    } else {
      throw std::runtime_error("unknown workload " + config.workload);
    }
    if (config.trace) {
      measure_machine(outcome);
      tracer.write_json(config.work_dir + "/trace.json");
    }
  } catch (const std::exception& e) {
    std::cerr << "psdpbench: " << config.workload << " aborted: " << e.what()
              << "\n";
    return 2;
  }

  for (const std::string& why : outcome.failures) {
    std::cout << "FAILURE: " << why << "\n";
  }
  for (const Metric& m : outcome.end_to_end) {
    std::cout << "e2e " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const Metric& m : outcome.per_layer) {
    std::cout << "layer " << m.name << " = " << m.value << " " << m.unit
              << "\n";
  }
  const std::vector<Metric>& reported =
      config.trace ? outcome.per_layer : outcome.end_to_end;
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) outcome.fail("metric " + m.name + " is not finite");
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : reported) {
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": ";
    print_json_number(std::cout, std::isfinite(m.value) ? m.value : 0);
    std::cout << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
