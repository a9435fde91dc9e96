#include "trace/suite.hh"

#include <map>
#include <memory>
#include <stdexcept>

#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace bouquet
{

namespace
{

/**
 * Map an intensity knob to a bubble length: intensity 1.0 gives the
 * archetype's densest spacing, lower intensities stretch it.
 */
unsigned
bubbleFor(unsigned base, double intensity)
{
    if (intensity <= 0.0)
        intensity = 0.05;
    const double b = static_cast<double>(base) / intensity;
    return b > 400.0 ? 400u : static_cast<unsigned>(b);
}

std::vector<TraceSpec>
buildMemIntensive()
{
    using A = Archetype;
    return {
        // bwaves: multi-IP constant strides (paper §III example: stride 3)
        {"603.bwaves_s-891B", A::ConstantStride, 101, 1.0},
        {"603.bwaves_s-1740B", A::ConstantStride, 102, 0.9},
        {"603.bwaves_s-2609B", A::ConstantStride, 103, 0.95},
        {"603.bwaves_s-2931B", A::ConstantStride, 104, 0.85},
        // gcc: global streams (paper: streaming benchmark)
        {"602.gcc_s-734B", A::GlobalStream, 201, 0.8},
        {"602.gcc_s-1850B", A::GlobalStream, 202, 0.7},
        {"602.gcc_s-2226B", A::GlobalStream, 203, 1.0},
        // cactuBSSN: very many live IPs
        {"607.cactuBSSN_s-2421B", A::ManyIp, 301, 0.8},
        {"607.cactuBSSN_s-3477B", A::ManyIp, 302, 0.75},
        {"607.cactuBSSN_s-4004B", A::ManyIp, 303, 0.85},
        // lbm: dense global streams
        {"619.lbm_s-2676B", A::GlobalStream, 401, 1.0},
        {"619.lbm_s-2677B", A::GlobalStream, 402, 1.0},
        {"619.lbm_s-3766B", A::GlobalStream, 403, 0.95},
        {"619.lbm_s-4268B", A::GlobalStream, 404, 0.9},
        // mcf: mixed phases; -1152B regular (CS), -1536B irregular (paper)
        {"605.mcf_s-472B", A::PointerChase, 501, 0.9},
        {"605.mcf_s-484B", A::PointerChase, 502, 0.85},
        {"605.mcf_s-665B", A::PointerChase, 503, 0.9},
        {"605.mcf_s-782B", A::PointerChase, 504, 0.8},
        {"605.mcf_s-994B", A::PointerChase, 505, 1.0},
        {"605.mcf_s-1152B", A::MixedRegular, 506, 0.9},
        {"605.mcf_s-1536B", A::PointerChase, 507, 1.0},
        {"605.mcf_s-1554B", A::PointerChase, 508, 0.95},
        {"605.mcf_s-1644B", A::PointerChase, 509, 0.9},
        {"605.mcf_s-1665B", A::PointerChase, 510, 0.85},
        // omnetpp: irregular event queues
        {"620.omnetpp_s-141B", A::PointerChase, 601, 0.6},
        {"620.omnetpp_s-874B", A::PointerChase, 602, 0.65},
        // wrf: phased regular
        {"621.wrf_s-575B", A::MixedRegular, 701, 0.7},
        {"621.wrf_s-6673B", A::MixedRegular, 702, 0.75},
        {"621.wrf_s-8065B", A::MixedRegular, 703, 0.7},
        // xalancbmk: moderate irregular (mem-intensive phases)
        {"623.xalancbmk_s-10B", A::IrregularLight, 801, 0.6},
        {"623.xalancbmk_s-165B", A::IrregularLight, 802, 0.55},
        {"623.xalancbmk_s-202B", A::IrregularLight, 803, 0.6},
        // cam4 / nab: complex strides
        {"627.cam4_s-490B", A::ComplexStride, 901, 0.8},
        {"644.nab_s-5721B", A::ComplexStride, 902, 0.75},
        // pop2: constant stride
        {"628.pop2_s-17B", A::ConstantStride, 1001, 0.7},
        {"628.pop2_s-368B", A::ConstantStride, 1002, 0.65},
        // fotonik3d: unit-stride streaming
        {"649.fotonik3d_s-1176B", A::GlobalStream, 1101, 1.0},
        {"649.fotonik3d_s-7084B", A::GlobalStream, 1102, 0.95},
        {"649.fotonik3d_s-8225B", A::GlobalStream, 1103, 0.9},
        // roms: phased regular
        {"654.roms_s-523B", A::MixedRegular, 1201, 0.85},
        {"654.roms_s-842B", A::MixedRegular, 1202, 0.8},
        {"654.roms_s-1070B", A::MixedRegular, 1203, 0.85},
        {"654.roms_s-1390B", A::MixedRegular, 1204, 0.75},
        // xz: moderate irregular
        {"657.xz_s-2302B", A::IrregularLight, 1301, 0.7},
        {"657.xz_s-3167B", A::IrregularLight, 1302, 0.65},
        {"657.xz_s-4994B", A::IrregularLight, 1303, 0.6},
    };
}

std::vector<TraceSpec>
buildNonIntensive()
{
    using A = Archetype;
    std::vector<TraceSpec> v;
    // Compute-bound stand-ins for the non-memory-intensive traces of the
    // full suite (perlbench, x264, deepsjeng, leela, exchange2, imagick,
    // and the low-MPKI sim-points of the other benchmarks).
    const char *names[] = {
        "600.perlbench_s-210B", "600.perlbench_s-570B",
        "600.perlbench_s-1135B", "602.gcc_s-2375B", "603.bwaves_s-5359B",
        "605.mcf_s-1686B", "607.cactuBSSN_s-4248B", "619.lbm_s-4528B",
        "620.omnetpp_s-1000B", "621.wrf_s-478B", "623.xalancbmk_s-325B",
        "623.xalancbmk_s-592B", "623.xalancbmk_s-700B", "625.x264_s-12B",
        "625.x264_s-18B", "625.x264_s-33B", "627.cam4_s-573B",
        "628.pop2_s-566B", "631.deepsjeng_s-928B", "638.imagick_s-824B",
        "638.imagick_s-4128B", "638.imagick_s-10316B", "641.leela_s-149B",
        "641.leela_s-334B", "641.leela_s-602B", "641.leela_s-800B",
        "641.leela_s-1052B", "641.leela_s-1083B", "641.leela_s-1116B",
        "641.leela_s-1230B", "644.nab_s-7928B", "644.nab_s-9537B",
        "644.nab_s-12459B", "648.exchange2_s-72B", "648.exchange2_s-387B",
        "648.exchange2_s-1227B", "648.exchange2_s-1247B",
        "648.exchange2_s-1511B", "648.exchange2_s-1699B",
        "648.exchange2_s-1712B", "649.fotonik3d_s-10881B",
        "654.roms_s-293B", "654.roms_s-294B", "654.roms_s-1007B",
        "654.roms_s-1613B", "657.xz_s-56B", "600.perlbench_s-740B",
        "625.x264_s-39B", "631.deepsjeng_s-334B", "638.imagick_s-123B",
        "641.leela_s-31B", "648.exchange2_s-353B",
    };
    std::uint64_t seed = 5000;
    for (const char *n : names) {
        // Low intensity: these traces have LLC MPKI < 1 in the paper.
        v.push_back({n, A::ComputeBound, seed++, 0.5});
    }
    return v;
}

std::vector<TraceSpec>
buildCloudSuite()
{
    using A = Archetype;
    return {
        {"cassandra", A::Server, 9001, 0.7},
        {"classification", A::Server, 9002, 0.5},
        {"cloud9", A::Server, 9003, 0.65},
        {"nutch", A::Server, 9004, 0.6},
        {"streaming", A::Server, 9005, 0.8},
    };
}

std::vector<TraceSpec>
buildNeuralNet()
{
    using A = Archetype;
    return {
        {"cifar10", A::TiledStream, 9101, 0.9},
        {"lstm", A::TiledStream, 9102, 0.8},
        {"nin", A::TiledStream, 9103, 0.85},
        {"resnet-50", A::TiledStream, 9104, 0.9},
        {"squeezenet", A::TiledStream, 9105, 0.8},
        {"vgg-19", A::TiledStream, 9106, 1.0},
        {"vgg-m", A::TiledStream, 9107, 0.95},
    };
}

} // namespace

const std::vector<TraceSpec> &
memIntensiveTraces()
{
    static const std::vector<TraceSpec> v = buildMemIntensive();
    return v;
}

const std::vector<TraceSpec> &
fullSuiteTraces()
{
    static const std::vector<TraceSpec> v = [] {
        std::vector<TraceSpec> all = buildMemIntensive();
        const std::vector<TraceSpec> rest = buildNonIntensive();
        all.insert(all.end(), rest.begin(), rest.end());
        return all;
    }();
    return v;
}

const std::vector<TraceSpec> &
cloudSuiteTraces()
{
    static const std::vector<TraceSpec> v = buildCloudSuite();
    return v;
}

const std::vector<TraceSpec> &
neuralNetTraces()
{
    static const std::vector<TraceSpec> v = buildNeuralNet();
    return v;
}

bool
isFileTrace(const std::string &name)
{
    return name.rfind("file:", 0) == 0;
}

TraceSpec
fileTraceSpec(const std::string &path)
{
    TraceSpec spec;
    spec.name = isFileTrace(path) ? path : "file:" + path;
    spec.archetype = Archetype::File;
    spec.seed = 0;
    spec.intensity = 1.0;
    return spec;
}

namespace
{

/** Decode the file a File spec names; throws on a bad file. */
SharedTraceRecords
decodeFile(const TraceSpec &spec)
{
    Result<std::vector<TraceRecord>> records = readTraceRecords(
        isFileTrace(spec.name) ? spec.name.substr(5) : spec.name);
    if (!records.ok())
        throw ErrorException(records.error());
    return std::make_shared<const std::vector<TraceRecord>>(
        records.take());
}

} // namespace

GeneratorPtr
makeWorkload(const TraceSpec &spec)
{
    const double k = spec.intensity;
    switch (spec.archetype) {
      case Archetype::ConstantStride: {
        ConstantStrideParams p;
        p.numIps = 6 + static_cast<unsigned>(spec.seed % 7);
        // Strides >= 2 so the CS class (not GS density) owns these:
        // stand-ins for the paper's stride-3 bwaves example. fotonik's
        // unit-stride streams live in the GS archetype instead.
        p.minStride = 2;
        p.maxStride = 2 + static_cast<int>(spec.seed % 4);
        p.bubble = bubbleFor(8, k);
        return std::make_unique<ConstantStrideGen>(spec.name, spec.seed, p);
      }
      case Archetype::ComplexStride: {
        ComplexStrideParams p;
        // Mean stride >= 2 keeps region density below the 75% GS
        // threshold, so these exercise CPLX rather than GS.
        p.patterns = {{3, 3, 4}, {2, 3}, {2, 2, 5}, {1, 2, 4}};
        p.numIps = 4 + static_cast<unsigned>(spec.seed % 4);
        p.bubble = bubbleFor(8, k);
        return std::make_unique<ComplexStrideGen>(spec.name, spec.seed, p);
      }
      case Archetype::GlobalStream: {
        GlobalStreamParams p;
        p.numIps = 4 + static_cast<unsigned>(spec.seed % 5);
        p.negativeDirection = (spec.seed % 3) == 0;
        p.regionDensity = 0.85 + 0.01 * static_cast<double>(spec.seed % 15);
        p.bubble = bubbleFor(6, k);
        return std::make_unique<GlobalStreamGen>(spec.name, spec.seed, p);
      }
      case Archetype::PointerChase: {
        PointerChaseParams p;
        p.regularFraction = 0.10 + 0.02 * static_cast<double>(spec.seed % 6);
        p.bubble = bubbleFor(10, k);
        p.footprint = (512ull + 128 * (spec.seed % 5)) << 20;
        return std::make_unique<PointerChaseGen>(spec.name, spec.seed, p);
      }
      case Archetype::ManyIp: {
        ManyIpParams p;
        p.numIps = 1536 + static_cast<unsigned>(512 * (spec.seed % 3));
        p.stride = 2;  // NL cannot cover it; per-IP state is required
        p.bubble = bubbleFor(8, k);
        return std::make_unique<ManyIpGen>(spec.name, spec.seed, p);
      }
      case Archetype::ComputeBound: {
        ComputeBoundParams p;
        p.bubble = bubbleFor(30, k);
        // Cache-resident: these stand-ins model traces whose IPC is
        // bounded by compute, not misses (LLC MPKI < 1 in the paper).
        p.footprint = (24ull + 4 * (spec.seed % 5)) << 10;
        return std::make_unique<ComputeBoundGen>(spec.name, spec.seed, p);
      }
      case Archetype::Server: {
        ServerParams p;
        p.bubble = bubbleFor(10, k);
        p.spatialFraction = 0.2 + 0.05 * static_cast<double>(spec.seed % 3);
        return std::make_unique<ServerGen>(spec.name, spec.seed, p);
      }
      case Archetype::TiledStream: {
        TiledStreamParams p;
        p.numTensors = 2 + static_cast<unsigned>(spec.seed % 3);
        p.tileLines = 32 + 16 * static_cast<unsigned>(spec.seed % 4);
        p.bubble = bubbleFor(6, k);
        return std::make_unique<TiledStreamGen>(spec.name, spec.seed, p);
      }
      case Archetype::MixedRegular: {
        // Phased CS + GS, modelling benchmarks that alternate regular
        // sweeps with streaming sections.
        ConstantStrideParams cs;
        cs.numIps = 6;
        cs.maxStride = 3;
        cs.bubble = bubbleFor(8, k);
        GlobalStreamParams gs;
        gs.bubble = bubbleFor(6, k);
        std::vector<GeneratorPtr> phases;
        phases.push_back(std::make_unique<ConstantStrideGen>(
            spec.name + ".cs", spec.seed, cs));
        phases.push_back(std::make_unique<GlobalStreamGen>(
            spec.name + ".gs", spec.seed + 1, gs));
        return std::make_unique<PhaseGen>(spec.name, std::move(phases),
                                          100000);
      }
      case Archetype::IrregularLight: {
        // Mostly-irregular with a regular component and lighter density.
        PointerChaseParams pc;
        pc.bubble = bubbleFor(14, k);
        pc.footprint = 256ull << 20;
        ConstantStrideParams cs;
        cs.numIps = 4;
        cs.bubble = bubbleFor(14, k);
        std::vector<GeneratorPtr> kids;
        std::vector<double> weights{0.7, 0.3};
        kids.push_back(std::make_unique<PointerChaseGen>(
            spec.name + ".irr", spec.seed, pc));
        kids.push_back(std::make_unique<ConstantStrideGen>(
            spec.name + ".reg", spec.seed + 1, cs));
        return std::make_unique<InterleaveGen>(spec.name, spec.seed,
                                               std::move(kids), weights);
      }
      case Archetype::File:
        return std::make_unique<TraceFileGenerator>(spec.name,
                                                    decodeFile(spec));
    }
    throw std::logic_error("unhandled archetype");
}

std::vector<GeneratorPtr>
makeWorkloads(const std::vector<TraceSpec> &specs)
{
    std::map<std::string, SharedTraceRecords> files;
    std::vector<GeneratorPtr> out;
    out.reserve(specs.size());
    for (const TraceSpec &s : specs) {
        if (s.archetype != Archetype::File) {
            out.push_back(makeWorkload(s));
            continue;
        }
        SharedTraceRecords &records = files[s.name];
        if (!records)
            records = decodeFile(s);
        out.push_back(std::make_unique<TraceFileGenerator>(s.name, records));
    }
    return out;
}

const TraceSpec *
findTraceOrNull(const std::string &name) noexcept
{
    for (const auto *suite : {&fullSuiteTraces(), &cloudSuiteTraces(),
                              &neuralNetTraces()}) {
        for (const TraceSpec &s : *suite) {
            if (s.name == name)
                return &s;
        }
    }
    return nullptr;
}

const TraceSpec &
findTrace(const std::string &name)
{
    if (const TraceSpec *spec = findTraceOrNull(name))
        return *spec;
    throw std::out_of_range("unknown trace: " + name);
}

GeneratorPtr
makeWorkload(const std::string &name)
{
    if (isFileTrace(name))
        return makeWorkload(fileTraceSpec(name));
    return makeWorkload(findTrace(name));
}

} // namespace bouquet
