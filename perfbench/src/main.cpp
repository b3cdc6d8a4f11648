// perfbench_harness: runs one benchmark workload once and prints one JSON
// object on stdout.  run.py starts one fresh process per repetition, so the
// reported peak RSS is that of a single workload run.
//
//   perfbench_harness --workload fanout_1000rx --seed 7 --trace 0
//       [--horizon-scale K]

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int usage() {
  std::cerr << "usage: perfbench_harness --workload <name> --seed <n> "
               "--trace <0|1> [--horizon-scale K]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  perfbench::Scale scale;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        traced = value == "1";
      } else if (flag == "--horizon-scale") {
        scale.horizon = std::stod(value);
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !have_seed) return usage();

  perfbench::Result r;
  try {
    r = perfbench::run_workload(workload, seed, traced, scale);
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("exception: ") + e.what());
  }

  std::ostringstream js;
  js.precision(17);
  js << "{\"workload\":" << json_string(workload) << ",\"seed\":" << seed
     << ",\"traced\":" << (traced ? "true" : "false")
     << ",\"ok\":" << (r.failures.empty() ? "true" : "false")
     << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    js << (i ? "," : "") << json_string(r.failures[i]);
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  js << "],\"wall_s\":" << r.wall_s << ",\"setup_s\":" << r.setup_s
     << ",\"run_s\":" << r.run_s << ",\"deliveries\":" << r.deliveries
     << ",\"runs\":" << r.runs << ",\"digest\":\"" << digest
     << "\",\"peak_rss_mb\":" << peak_rss_mb() << ",\"counts\":{";
  const char* sep = "";
  for (const auto& [k, v] : r.counts) {
    js << sep << json_string(k) << ':' << v;
    sep = ",";
  }
  js << "},\"layers\":{";
  sep = "";
  for (const auto& [k, v] : r.layers) {
    js << sep << json_string(k) << ':' << v;
    sep = ",";
  }
  js << "},\"build\":{\"compiler\":" << json_string(__VERSION__)
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE) << "}}";
  std::cout << js.str() << std::endl;
  return r.failures.empty() ? 0 : 1;
}
