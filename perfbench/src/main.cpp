// perfbench — the repository's end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload train|serve|stream --seed N --seconds S
//             --trace 0|1 [--workdir DIR] [--source-id ID]
//
// --trace 0 measures the end-to-end metrics with nothing but the workload's
// own client-side clocks running; --trace 1 is a separate run that times the
// public calls of each layer from here, outside the library, and prints the
// per-layer metrics. Exit codes: 0 ok, 1 usage, 2 library error, 3 output
// check mismatch (no result line is printed for 1-3).
#include <malloc.h>

#include <cstdio>
#include <filesystem>

#include "harness.hpp"

int main(int argc, char** argv) {
    // Pin glibc's mmap threshold at its default starting value (128 KiB).
    // Left dynamic, it rises after the first large free, and whether later
    // large buffers stay on the heap depends on the order of allocations,
    // so peak RSS moved between 21.7 and 31.2 MB (train) and 14.5 and
    // 16.5 MB (stream) with the seed. Pinned, large buffers are always
    // mapped and returned at free, and peak RSS follows the library's own
    // peak of live memory.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    perfbench::Args args;
    if (!perfbench::ParseArgs(argc, argv, &args)) return 1;
    std::error_code ec;
    std::filesystem::create_directories(args.workdir, ec);
    perfbench::Require(!ec, "cannot create workdir " + args.workdir);

    perfbench::Report report;
    int rc = 1;
    if (args.workload == "train") {
        rc = perfbench::RunTrain(args, &report);
    } else if (args.workload == "serve") {
        rc = perfbench::RunServe(args, &report);
    } else if (args.workload == "stream") {
        rc = perfbench::RunStream(args, &report);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 1;
    }
    if (rc != 0) return rc;
    report.Print(args);
    return 0;
}
