//! Models of C standard library / API functions.
//!
//! Mini-C has no headers, so dataflow through library calls is driven by this
//! table: for each known function we record which argument positions are
//! *outputs* (the call defines the pointed-to object), which are *inputs*,
//! and whether the function is considered dangerous by the classical
//! detectors (Flawfinder/RATS rules, reused by `sevuldet-static`).

/// Dataflow summary of a library function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibFunc {
    /// Function name as it appears in source.
    pub name: &'static str,
    /// Argument indices (0-based) whose pointee is written by the call.
    pub out_params: &'static [usize],
    /// Whether the function allocates (returns fresh heap memory).
    pub allocates: bool,
    /// Whether the function frees its first pointer argument.
    pub frees: bool,
    /// Risk level assigned by lexical scanners (0 = benign, up to 5).
    pub risk: u8,
}

/// The library model table.
///
/// `out_params` follow the C standard: e.g. `strncpy(dest, src, n)` writes
/// through `dest` (index 0); `fgets(buf, n, f)` writes `buf`.
pub const LIB_FUNCS: &[LibFunc] = &[
    LibFunc {
        name: "strcpy",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 5,
    },
    LibFunc {
        name: "strncpy",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 3,
    },
    LibFunc {
        name: "strcat",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 5,
    },
    LibFunc {
        name: "strncat",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 3,
    },
    LibFunc {
        name: "sprintf",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 5,
    },
    LibFunc {
        name: "snprintf",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 2,
    },
    LibFunc {
        name: "gets",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 5,
    },
    LibFunc {
        name: "fgets",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 1,
    },
    LibFunc {
        name: "memcpy",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 4,
    },
    LibFunc {
        name: "memmove",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 3,
    },
    LibFunc {
        name: "memset",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 2,
    },
    LibFunc {
        name: "bcopy",
        out_params: &[1],
        allocates: false,
        frees: false,
        risk: 4,
    },
    LibFunc {
        name: "scanf",
        out_params: &[1, 2, 3, 4],
        allocates: false,
        frees: false,
        risk: 4,
    },
    LibFunc {
        name: "sscanf",
        out_params: &[2, 3, 4, 5],
        allocates: false,
        frees: false,
        risk: 3,
    },
    LibFunc {
        name: "fscanf",
        out_params: &[2, 3, 4, 5],
        allocates: false,
        frees: false,
        risk: 3,
    },
    LibFunc {
        name: "read",
        out_params: &[1],
        allocates: false,
        frees: false,
        risk: 3,
    },
    LibFunc {
        name: "recv",
        out_params: &[1],
        allocates: false,
        frees: false,
        risk: 3,
    },
    LibFunc {
        name: "fread",
        out_params: &[0],
        allocates: false,
        frees: false,
        risk: 2,
    },
    LibFunc {
        name: "malloc",
        out_params: &[],
        allocates: true,
        frees: false,
        risk: 2,
    },
    LibFunc {
        name: "calloc",
        out_params: &[],
        allocates: true,
        frees: false,
        risk: 1,
    },
    LibFunc {
        name: "realloc",
        out_params: &[],
        allocates: true,
        frees: true,
        risk: 3,
    },
    LibFunc {
        name: "free",
        out_params: &[],
        allocates: false,
        frees: true,
        risk: 2,
    },
    LibFunc {
        name: "strlen",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 1,
    },
    LibFunc {
        name: "strcmp",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 0,
    },
    LibFunc {
        name: "strncmp",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 0,
    },
    LibFunc {
        name: "strchr",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 0,
    },
    LibFunc {
        name: "strdup",
        out_params: &[],
        allocates: true,
        frees: false,
        risk: 2,
    },
    LibFunc {
        name: "atoi",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 2,
    },
    LibFunc {
        name: "atol",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 2,
    },
    LibFunc {
        name: "getenv",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 3,
    },
    LibFunc {
        name: "printf",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 1,
    },
    LibFunc {
        name: "fprintf",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 1,
    },
    LibFunc {
        name: "puts",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 0,
    },
    LibFunc {
        name: "exit",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 0,
    },
    LibFunc {
        name: "abort",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 0,
    },
    LibFunc {
        name: "rand",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 1,
    },
    LibFunc {
        name: "memcmp",
        out_params: &[],
        allocates: false,
        frees: false,
        risk: 0,
    },
    LibFunc {
        name: "alloca",
        out_params: &[],
        allocates: true,
        frees: false,
        risk: 4,
    },
];

/// Looks up a library function model by name: a `match` on the name (the
/// compiler turns it into length and byte comparisons), giving the entry's
/// position in [`LIB_FUNCS`].
pub fn lib_func(name: &str) -> Option<&'static LibFunc> {
    let i = match name {
        "strcpy" => 0,
        "strncpy" => 1,
        "strcat" => 2,
        "strncat" => 3,
        "sprintf" => 4,
        "snprintf" => 5,
        "gets" => 6,
        "fgets" => 7,
        "memcpy" => 8,
        "memmove" => 9,
        "memset" => 10,
        "bcopy" => 11,
        "scanf" => 12,
        "sscanf" => 13,
        "fscanf" => 14,
        "read" => 15,
        "recv" => 16,
        "fread" => 17,
        "malloc" => 18,
        "calloc" => 19,
        "realloc" => 20,
        "free" => 21,
        "strlen" => 22,
        "strcmp" => 23,
        "strncmp" => 24,
        "strchr" => 25,
        "strdup" => 26,
        "atoi" => 27,
        "atol" => 28,
        "getenv" => 29,
        "printf" => 30,
        "fprintf" => 31,
        "puts" => 32,
        "exit" => 33,
        "abort" => 34,
        "rand" => 35,
        "memcmp" => 36,
        "alloca" => 37,
        _ => return None,
    };
    Some(&LIB_FUNCS[i])
}

/// Whether `name` is a modelled library/API function.
pub fn is_lib_func(name: &str) -> bool {
    lib_func(name).is_some()
}

/// Whether the function terminates the program (CFG should treat the call as
/// having no fallthrough successor). Kept conservative: only `exit`/`abort`.
pub fn is_noreturn(name: &str) -> bool {
    matches!(name, "exit" | "abort")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_known_and_unknown() {
        assert!(is_lib_func("strncpy"));
        assert!(!is_lib_func("my_helper"));
        assert_eq!(lib_func("strncpy").unwrap().out_params, &[0]);
        assert!(lib_func("malloc").unwrap().allocates);
        assert!(lib_func("free").unwrap().frees);
    }

    #[test]
    fn risk_ordering_gets_worse_than_fgets() {
        assert!(lib_func("gets").unwrap().risk > lib_func("fgets").unwrap().risk);
    }

    #[test]
    fn every_entry_is_found_by_name_and_non_entries_are_not() {
        for (i, f) in LIB_FUNCS.iter().enumerate() {
            let found = lib_func(f.name).unwrap_or_else(|| panic!("{} not found", f.name));
            assert_eq!(found, &LIB_FUNCS[i], "{} maps to entry {i}", f.name);
        }
        for name in [
            "",
            "strcpy_s",
            "Strcpy",
            "memcpy ",
            "my_helper",
            "main",
            "str",
            "_exit",
        ] {
            assert!(
                lib_func(name).is_none(),
                "{name:?} is not a library function"
            );
            assert!(!is_lib_func(name));
        }
    }

    #[test]
    fn table_has_no_duplicates() {
        let mut names: Vec<_> = LIB_FUNCS.iter().map(|f| f.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
