// Ablation: buffer replacement policy (LRU vs FIFO) under eager's
// re-visit-heavy access pattern and lazy's scan-like pattern. The paper
// assumes an LRU buffer (Section 6); this quantifies how much of eager's
// Fig 21 behaviour depends on recency-aware replacement.

#include <cstdio>

#include "bench_util.h"
#include "gen/points.h"
#include "gen/road_network.h"

using namespace grnn;
using namespace grnn::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  gen::RoadConfig cfg;
  cfg.num_nodes = args.pick<NodeId>(15000, 60000, 175000);
  cfg.seed = args.seed;
  auto net = gen::GenerateRoadNetwork(cfg).ValueOrDie();

  Rng rng(args.seed * 71 + 1);
  auto points =
      gen::PlaceNodePoints(net.g.num_nodes(), 0.01, rng).ValueOrDie();
  auto queries = gen::SampleQueryPoints(points, args.queries, rng);

  PrintBanner(StrPrintf("Ablation -- LRU vs FIFO buffer (road, |V|=%u, "
                        "16-page buffer)",
                        net.g.num_nodes()),
              args, "small buffer stresses the replacement decision");

  auto env = BuildStoredRestricted(net.g, points, /*K=*/0).ValueOrDie();

  Table table({"algorithm", "policy", "IO/q", "CPUms/q"});
  JsonReport report("ablation_replacement", args);
  for (core::Algorithm a :
       {core::Algorithm::kEager, core::Algorithm::kLazy}) {
    for (auto policy : {storage::ReplacementPolicy::kLru,
                        storage::ReplacementPolicy::kFifo}) {
      env.ResetPool(16, policy);
      auto engine = MakeRestrictedEngine(env, points).ValueOrDie();
      auto m =
          RunWorkload(env.pool.get(), queries.size(),
                      [&](size_t i) -> Result<size_t> {
                        GRNN_ASSIGN_OR_RETURN(
                            core::RknnResult r,
                            engine.Run(core::QuerySpec::Monochromatic(
                                a, points.NodeOf(queries[i]), /*k=*/1,
                                queries[i])));
                        return r.results.size();
                      })
              .ValueOrDie();
      const char* policy_name =
          policy == storage::ReplacementPolicy::kLru ? "LRU" : "FIFO";
      table.AddRow({core::AlgorithmName(a), policy_name,
                    Table::Num(m.AvgFaults(), 1),
                    Table::Num(m.AvgCpuMs(), 2)});
      report.AddConfig(StrPrintf("algo=%s,policy=%s",
                                 core::AlgorithmShortName(a), policy_name),
                       JsonReport::MeasurementMetrics(m));
    }
  }
  table.Print();
  if (auto st = report.WriteIfRequested(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "\nexpected: LRU <= FIFO for eager (its range-NN re-visits have\n"
      "strong recency); the gap narrows for lazy's more scan-like\n"
      "traversal.\n");
  return 0;
}
