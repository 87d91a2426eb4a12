// bench_qbf_copies: Ablation C (DESIGN.md) — number of ECO-miter copies
// needed for a multi-target structural patch: the QBF-certificate route of
// paper §3.6.2 (one copy per CEGAR round) versus the naive cofactor
// expansion (2^k - 1 copies for k targets; "255 -> 40 for 8 targets").

#include <cstdio>
#include <cstring>

#include "benchgen/circuits.hpp"
#include "benchgen/mutate.hpp"
#include "eco/miter.hpp"
#include "eco/problem.hpp"
#include "eco/structural.hpp"
#include "qbf/qbf2.hpp"
#include "util/numparse.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  uint64_t seed = 7;
  for (int i = 1; i < argc; i += 2) {
    // argv[argc] is null, so a trailing "--seed" fails parse_u64.
    if (std::strcmp(argv[i], "--seed") != 0 || !eco::util::parse_u64(argv[i + 1], seed)) {
      std::fprintf(stderr, "usage: %s [--seed N]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Ablation C: miter copies for multi-target structural patches\n");
  std::printf("(QBF-certificate construction vs. naive 2^k - 1 expansion)\n\n");
  std::printf("%3s | %10s %10s | %10s | %8s\n", "k", "naive", "qbf-cert", "patch ok",
              "time(s)");

  eco::Rng rng(seed);
  for (int k = 1; k <= 8; ++k) {
    // A circuit with enough observable gates for k targets.
    const eco::net::Network base =
        eco::benchgen::make_random_logic(16, 12, 300 + 40 * k, rng);
    eco::benchgen::EcoInstance instance;
    try {
      instance = eco::benchgen::make_eco_instance(base, k, rng);
    } catch (const std::runtime_error&) {
      std::printf("%3d | instance generation failed\n", k);
      continue;
    }
    const eco::core::EcoProblem problem =
        eco::core::make_problem(instance.impl, instance.spec, eco::net::WeightMap{});
    const eco::core::EcoMiter miter =
        eco::core::build_eco_miter(problem.impl, problem.spec, problem.divisors);

    eco::Timer timer;
    eco::qbf::Qbf2Options qopt;
    qopt.max_iterations = 5000;
    const auto cert =
        eco::qbf::solve_exists_forall(miter.aig, miter.out, miter.num_x, qopt);
    bool patch_ok = false;
    size_t copies = 0;
    if (cert.status == eco::qbf::Qbf2Status::kFalse) {
      copies = cert.moves.size();
      const auto patches = k == 1 ? eco::core::structural_patch_single(miter, 0)
                                  : eco::core::structural_patch_multi(miter, cert);
      patch_ok = patches.ok;
    }
    const long naive = (1L << k) - 1;
    std::printf("%3d | %10ld %10zu | %10s | %8.2f\n", k, naive, copies,
                patch_ok ? "yes" : "no", timer.seconds());
  }
  std::printf("\nThe qbf-cert column should grow far slower than 2^k - 1, reproducing\n"
              "the paper's copy-count reduction for many-target instances.\n");
  return 0;
}
