#include "util/text_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace blowfish {
namespace {

TEST(TextFileTest, ReadsTheBytesAsWritten) {
  const std::string path = ::testing::TempDir() + "text_file_test.txt";
  // CRLF endings, a NUL and no final newline all come back unchanged.
  std::string bytes = "a,b\r\n1,2\r\n";
  bytes += '\0';
  bytes += "tail";
  for (int i = 0; i < 3000; ++i) bytes += "0123456789";
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  auto text = ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, bytes);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
  }
  text = ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, "");
  std::remove(path.c_str());
}

TEST(TextFileTest, ReadsToTheEndWhenTheSizeReadsZero) {
  // procfs reports a size of 0 for files that have content.
  auto text = ReadTextFile("/proc/self/status");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Name:"), std::string::npos);
  EXPECT_EQ(text->back(), '\n');
}

TEST(TextFileTest, MissingFileIsNotFound) {
  auto text = ReadTextFile("/nonexistent/text_file_test.txt");
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace blowfish
