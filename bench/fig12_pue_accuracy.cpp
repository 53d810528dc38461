/**
 * @file
 * Paper Fig 12: the mean percentage error of PUE estimates averaged
 * over applications and DIMMs for SVM / KNN / RDF under the three
 * input sets.
 *
 * Paper reference: KNN and RDF achieve their best PUE accuracy with
 * input set 2 (4.1% and 5.5%), ~3x better than SVM's best (12.3% with
 * set 1).
 */

#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("Fig 12",
                  "MPE of PUE estimates (LOBO CV), % -- 70C, "
                  "TREFP in {1.450, 1.727, 2.283} s");

    const auto suite = workloads::standardSuite();
    const auto samples = core::collectPueSamples(
        session.campaign(), suite, core::pueOperatingPoints(),
        bench::repeats(session.config()));

    std::printf("%-6s %12s %12s %12s\n", "model", "input set 1",
                "input set 2", "input set 3");
    for (const core::ModelKind kind : core::kAllModelKinds) {
        std::printf("%-6s", core::modelKindName(kind).c_str());
        for (const core::InputSet set : core::kAllInputSets) {
            const auto data = core::makePueDataset(session.campaign(),
                                                   samples, set);
            const auto result =
                core::evaluateModel(data, kind, /*log_target=*/false);
            std::printf(" %12.1f", result.mpe);
        }
        std::printf("\n");
    }

    bench::rule();
    std::printf("(paper: KNN/set2 4.1, RDF/set2 5.5, SVM/set1 12.3)\n");
    return 0;
}
