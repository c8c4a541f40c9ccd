/**
 * @file Tests for the trace and dataset CSV exports (`mapp_cli trace`
 * and `collect`). Nothing reads these files back, so the tests pin
 * their exact text and the file writers' bytes.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "common/error.h"
#include "isa/trace.h"
#include "isa/trace_io.h"
#include "ml/dataset.h"
#include "ml/dataset_io.h"
#include "vision/registry.h"

namespace {

using namespace mapp;

std::string
slurp(const std::filesystem::path& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::filesystem::path
tempPath(const std::string& name)
{
    return std::filesystem::temp_directory_path() /
           (name + "_" + std::to_string(::getpid()) + ".csv");
}

TEST(TraceIo, TraceToCsvExactText)
{
    isa::WorkloadTrace trace("FAST", 20);
    isa::KernelPhase blur;
    blur.name = "gaussian_blur";
    blur.mix.add(isa::InstClass::MemRead, 100);
    blur.mix.add(isa::InstClass::FpAlu, 250);
    blur.bytesRead = 4096;
    blur.bytesWritten = 1024;
    blur.footprint = 8192;
    blur.parallelFraction = 0.95;
    blur.workItems = 640;
    blur.locality = 0.8;
    blur.branchDivergence = 0.05;
    trace.append(blur);
    isa::KernelPhase copy;
    copy.name = "image_copy";
    copy.mix.add(isa::InstClass::String, 7);
    copy.bytesRead = 16;
    copy.bytesWritten = 16;
    copy.footprint = 32;
    copy.launches = 3;
    copy.hostStaged = true;
    trace.append(copy);

    EXPECT_EQ(isa::traceToCsv(trace),
              "app,batch,phase,mem_rd,mem_wr,ctrl,arith,fp,stack,shift,"
              "string,sse,bytes_read,bytes_written,footprint,parallel,"
              "work_items,locality,divergence,launches,host_staged\n"
              "FAST,20,gaussian_blur,100,0,0,0,250,0,0,0,0,4096,1024,"
              "8192,0.950000,640,0.800000,0.050000,1,0\n"
              "FAST,20,image_copy,0,0,0,0,0,0,0,7,0,16,16,32,1.000000,"
              "1,0.500000,0.100000,3,1\n");
}

TEST(DatasetIo, DatasetToCsvExactText)
{
    ml::Dataset data({"cpu_time", "gpu_time"});
    data.addRow({0.5, 1e-9}, 0.1, "FAST+SIFT");
    data.addRow({3.0, 2.25}, 12.0, "HOG+\"KNN\",v2");

    EXPECT_EQ(ml::datasetToCsv(data),
              "cpu_time,gpu_time,target,group\n"
              "0.5,1.0000000000000001e-09,0.10000000000000001,FAST+SIFT\n"
              "3,2.25,12,\"HOG+\"\"KNN\"\",v2\"\n");
}

TEST(TraceIo, WriteTraceFileWritesTheCsvText)
{
    const auto trace = vision::profileWorkload(vision::BenchmarkId::Svm,
                                               20);
    const auto path = tempPath("mapp_trace_io_test");
    isa::writeTraceFile(trace, path.string());
    EXPECT_EQ(slurp(path), isa::traceToCsv(trace));
    std::filesystem::remove(path);
}

TEST(TraceIo, WriteTraceFileToUnwritablePathRaises)
{
    const auto trace = vision::profileWorkload(vision::BenchmarkId::Fast,
                                               4);
    EXPECT_THROW(isa::writeTraceFile(trace, "/nonexistent/dir/t.csv"),
                 InputError);
}

TEST(DatasetIo, WriteDatasetFileWritesTheCsvText)
{
    ml::Dataset d({"f"});
    d.addRow({42.0}, 7.0, "weird,group+name");
    const auto path = tempPath("mapp_dataset_io_test");
    ml::writeDatasetFile(d, path.string());
    EXPECT_EQ(slurp(path), "f,target,group\n42,7,\"weird,group+name\"\n");
    std::filesystem::remove(path);
}

TEST(DatasetIo, WriteDatasetFileToUnwritablePathRaises)
{
    ml::Dataset d({"f"});
    d.addRow({1.0}, 2.0, "g");
    EXPECT_THROW(ml::writeDatasetFile(d, "/nonexistent/dir/d.csv"),
                 InputError);
}

}  // namespace
