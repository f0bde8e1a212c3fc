"""The paper's two infinite-word constructions, built from their definitions
for the tests.

Nothing here comes from `morphexp.infinite`: the generators there grow these
words incrementally, and the tests compare their prefixes with the words
built here in one piece.  Base and source words are over the letters "01".

- Interleaved renamed copies: round j takes the j-th chunk of the base, of
  length j (letters j(j-1)/2 .. j(j+1)/2 - 1), once per copy, renamed onto
  that copy's letter pair, in copy order.
- The optimal-binary intermediate word: the source is cut into consecutive
  chunks u_1, u_2, ... with |u_1| = k+1 and |u_(i+1)| = i^2 (k+1) |u_i|, and
  again, from its start, into chunks v_1, v_2, ... with
  |v_i| + 1 = k (|u_i| + 1).  Block i is (u_i SEP v_i SEP)^n u_i SEP, and
  each block is followed by END.

`factor_complexity` counts the distinct factors of one length in a prefix.
"""


def thue_morse_word(length):
    """t_0 .. t_(length-1), where t_i is the parity of the ones in i."""
    return "".join(str(bin(i).count("1") % 2) for i in range(length))


def _take(word, start, length):
    if start + length > len(word):
        raise ValueError(f"base word too short: need {start + length} letters, have {len(word)}")
    return word[start:start + length]


def interleaved_chunks(base, copy_letters, j):
    """The j-th chunk of every copy, in copy order; copy i renames 0 and 1
    onto copy_letters[2i] and copy_letters[2i+1]."""
    chunk = _take(base, j * (j - 1) // 2, j)
    pairs = [copy_letters[i:i + 2] for i in range(0, len(copy_letters), 2)]
    return [chunk.translate(str.maketrans("01", pair)) for pair in pairs]


def interleaved_round(base, copy_letters, j):
    """Round j of the interleaving."""
    return "".join(interleaved_chunks(base, copy_letters, j))


def chunk_schedule(k, count):
    """[(|u_i|, |v_i|) for i = 1..count], by the recurrence."""
    schedule = []
    u = k + 1
    for i in range(1, count + 1):
        schedule.append((u, k * (u + 1) - 1))
        u = i * i * (k + 1) * u
    return schedule


def intermediate_block(source, n, k, i, letters):
    """Block i of the intermediate word, (u_i SEP v_i SEP)^n u_i SEP, without
    its END; letters are u's two letters, v's two letters, SEP and END."""
    schedule = chunk_schedule(k, i)
    u_start = sum(u for u, _ in schedule[:-1])
    v_start = sum(v for _, v in schedule[:-1])
    u_len, v_len = schedule[-1]
    u = _take(source, u_start, u_len).translate(str.maketrans("01", letters[0:2]))
    v = _take(source, v_start, v_len).translate(str.maketrans("01", letters[2:4]))
    sep = letters[4]
    return (u + sep + v + sep) * n + u + sep


def intermediate_word(source, n, k, blocks, letters):
    """Blocks 1..blocks of the intermediate word, each followed by END."""
    return "".join(intermediate_block(source, n, k, i, letters) + letters[5] for i in range(1, blocks + 1))


def factor_complexity(gen, prefix_len, n):
    """Number of distinct length-n factors of the generator's prefix (a lower
    bound for the complexity of the infinite word)."""
    text = gen.prefix(prefix_len)
    return len({text[i:i + n] for i in range(prefix_len - n + 1)})
