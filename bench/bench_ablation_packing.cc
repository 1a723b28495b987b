// Ablation: page-packing order of the adjacency file (DESIGN.md S2).
// The paper groups neighboring adjacency lists into pages following [2];
// we approximate that with a BFS order. This bench quantifies the
// benefit against natural (node-id) and random placement: same queries,
// same algorithm (eager), same packed records, different node orders.

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

  Rng rng(args.seed * 67 + 1);
  auto points =
      gen::PlaceNodePoints(net.g.num_nodes(), 0.01, rng).ValueOrDie();
  auto queries = gen::SampleQueryPoints(points, args.queries, rng);

  PrintBanner(StrPrintf("Ablation -- adjacency page packing "
                        "(road, |V|=%u, eager, k=1)",
                        net.g.num_nodes()),
              args, "identical queries; only the node order differs");

  Table table({"order", "IO/q", "CPUms/q", "total(s)/q", "pages"});
  JsonReport report("ablation_packing", args);
  struct OrderConfig {
    const char* name;
    storage::NodeOrder order;
  };
  for (const OrderConfig& c :
       {OrderConfig{"bfs (paper-style)", storage::NodeOrder::kBfs},
        OrderConfig{"natural", storage::NodeOrder::kNatural},
        OrderConfig{"random", storage::NodeOrder::kRandom}}) {
    storage::MemoryDiskManager disk;
    storage::GraphFileOptions opts;
    opts.order = c.order;
    auto file = storage::GraphFile::Build(net.g, &disk, opts).ValueOrDie();
    storage::BufferPool pool(&disk, kDefaultPoolPages);
    storage::StoredGraph view(&file, &pool);

    core::EngineSources sources;
    sources.graph = &view;
    sources.points = &points;
    sources.pool = &pool;
    auto engine = core::RknnEngine::Create(sources).ValueOrDie();
    auto m = RunWorkload(&pool, queries.size(),
                         [&](size_t i) -> Result<size_t> {
                           GRNN_ASSIGN_OR_RETURN(
                               core::RknnResult r,
                               engine.Run(core::QuerySpec::Monochromatic(
                                   core::Algorithm::kEager,
                                   points.NodeOf(queries[i]), /*k=*/1,
                                   queries[i])));
                           return r.results.size();
                         })
                 .ValueOrDie();
    table.AddRow({c.name, Table::Num(m.AvgFaults(), 1),
                  Table::Num(m.AvgCpuMs(), 2), Table::Num(m.AvgTotalS(), 3),
                  std::to_string(file.num_pages())});
    auto metrics = JsonReport::MeasurementMetrics(m);
    metrics.emplace_back("pages", static_cast<double>(file.num_pages()));
    report.AddConfig(c.name, std::move(metrics));
  }
  table.Print();
  if (auto st = report.WriteIfRequested(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "\nexpected: BFS packing cuts page faults substantially versus\n"
      "random placement (expansions touch co-located lists), at equal\n"
      "CPU -- justifying the paper's locality-aware storage scheme.\n");
  return 0;
}
