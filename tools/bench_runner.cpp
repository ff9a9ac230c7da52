// bench_runner — runs the benchmark campaigns (gfsl-bench-v1 producer), the
// one way to run a thesis table or figure.
//
//   bench_runner [--campaign a,b,c | --campaign all] [--quick] [--reps N]
//                [--out-dir DIR] [--list]
//
// Runs the selected benchmark campaigns (harness/campaign.h) and, when
// --out-dir is given, writes one `BENCH_<campaign>.json` gfsl-bench-v1
// report per campaign.  Without --quick the scale comes from GFSL_OPS,
// GFSL_MAX_RANGE, GFSL_REPS, GFSL_TEAMS and GFSL_SEED; --quick swaps in the
// fixed reduced scale the CI regression gate uses, so the emitted reports
// are directly comparable against the committed baselines under
// bench/baselines/.  Exit codes: 0 all campaigns ran, 2 bad usage or an
// unknown campaign name.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/campaign.h"
#include "harness/options.h"

using namespace gfsl;
using namespace gfsl::harness;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_runner [--campaign NAME[,NAME...]|all] [--quick] "
               "[--reps N] [--out-dir DIR] [--list]\n");
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto comma = s.find(',', pos);
    const auto end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = Options::parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }
  const std::set<std::string> known{"campaign", "quick", "reps", "out-dir",
                                    "list", "help"};
  if (opt.get_bool("help")) return usage();
  for (const auto& u : opt.unknown(known)) {
    std::fprintf(stderr, "error: unknown option --%s\n", u.c_str());
    return usage();
  }

  if (opt.get_bool("list")) {
    for (const auto& c : campaigns()) {
      std::printf("%-22s %s\n", c.name.c_str(), c.description.c_str());
    }
    return 0;
  }

  CampaignOptions copts;
  copts.quick = opt.get_bool("quick");
  copts.reps = static_cast<int>(opt.get_u64("reps", 0));
  copts.out_dir = opt.get("out-dir", "");

  std::vector<const Campaign*> selected;
  const std::string sel = opt.get("campaign", "all");
  if (sel == "all") {
    for (const auto& c : campaigns()) selected.push_back(&c);
  } else {
    for (const auto& name : split_csv(sel)) {
      const Campaign* c = find_campaign(name);
      if (c == nullptr) {
        std::fprintf(stderr, "error: unknown campaign '%s' (try --list)\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(c);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "error: no campaigns selected\n");
    return usage();
  }

  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Campaign& c = *selected[i];
    std::printf("%s=== campaign %zu/%zu: %s — %s ===\n", i == 0 ? "" : "\n",
                i + 1, selected.size(), c.name.c_str(), c.description.c_str());
    (void)run_campaign(c, copts);
  }
  return 0;
}
