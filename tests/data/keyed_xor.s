# Tiny keyed program for the emask-run CLI tests: one secret word is
# loaded, mixed with a public constant and stored.
.data
.secret key
key: .word 0x5A5A1234
out: .word 0
.text
main:
  la   $t0, key
  lw   $t1, 0($t0)
  li   $t2, 0x0F0F
  xor  $t1, $t1, $t2
  la   $t3, out
  sw   $t1, 0($t3)
  halt
