// Emits the RSL source of a generated N-channel dashboard (network
// `dash_gen`, see systems::generated_dash_source): N independent wheel-speed
// chains sharing one sampling timer. The family is the scaling axis for the
// verification benchmarks — cluster count grows linearly with N, the
// reachable state space multiplicatively — and the output feeds straight
// back into polisc:
//
//   gen_dash 3 > three.rsl
//   polisc three.rsl --network dash_gen --verify
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/systems.hpp"

int main(int argc, char** argv) {
  int channels = 0;
  std::string out_file;
  bool usage_error = argc < 2;
  for (int i = 1; i < argc && !usage_error; ++i) {
    const std::string a = argv[i];
    if (a == "--out") {
      if (i + 1 >= argc) {
        usage_error = true;
        break;
      }
      out_file = argv[++i];
    } else if (channels == 0 && !a.empty() && a[0] != '-') {
      channels = std::atoi(a.c_str());
      if (channels < 1) usage_error = true;
    } else {
      usage_error = true;
    }
  }
  if (usage_error || channels < 1) {
    std::cerr << "usage: gen_dash N [--out FILE]\n"
                 "  N      number of wheel-speed channels (>= 1)\n"
                 "  --out  write the RSL source to FILE instead of stdout\n";
    return 2;
  }
  const std::string src = polis::systems::generated_dash_source(channels);
  if (out_file.empty()) {
    std::cout << src;
    return 0;
  }
  std::ofstream out(out_file);
  if (!out) {
    std::cerr << "gen_dash: cannot open " << out_file << "\n";
    return 1;
  }
  out << src;
  return 0;
}
