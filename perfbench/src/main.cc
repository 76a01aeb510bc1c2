// mst_perfbench: runs one workload of the repository benchmark and prints
// its report (metrics with units and sample counts, environment, and the
// correctness tallies) as one JSON object on the last line of stdout.
//
//   mst_perfbench --workload cold|frontdoor|ingest_live --seed N
//                 --seconds S --trace 0|1 [--out DIR]
//
// Exit status: 0 when every answer was correct, 1 on a wrong answer or a
// benchmark bug, 2 on bad arguments. perfbench/run.py builds and drives it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "mst_perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      config->workload = value;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      config->out_dir = value;
    } else {
      std::fprintf(stderr, "mst_perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return config->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  if (!ParseArgs(argc, argv, &config)) return 2;
  void (*run)(const Config&, Tracer*, Report*) = nullptr;
  if (config.workload == "cold") run = RunCold;
  if (config.workload == "frontdoor") run = RunFrontdoor;
  if (config.workload == "ingest_live") run = RunIngestLive;
  if (run == nullptr) {
    std::fprintf(stderr, "mst_perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }

  Progress("workload " + config.workload + ", seed " +
           std::to_string(config.seed));
  Tracer tracer(config.trace);
  Report report;
  ReportEnvironment(config, &report);
  run(config, &tracer, &report);
  if (tracer.enabled()) {
    const std::string path = config.out_dir + "/spans-" + config.workload +
                             "-" + std::to_string(config.seed) + ".jsonl";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "mst_perfbench: cannot write %s\n", path.c_str());
    }
    report.Env("spans", static_cast<double>(tracer.size()));
    report.Env("spans_file", path);
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}
